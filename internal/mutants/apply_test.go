// Package mutants holds the repo's mutant table: code mutations that put
// back a bug shape, each paired with the gate that must fail on it. The
// table and its driver live in mutants_test.go behind the "mutants" build
// tag (`make mutants`); this file holds the driver's pure apply step and
// its self-test, which run with every `go test ./...`.
package mutants

import (
	"fmt"
	"strings"
	"testing"
)

// mutant is one row of the table. Old must occur exactly once in File; the
// row replaces it with New, and Gate is the one command that must then
// fail: `go test [-race] -run '^Name$' ./pkg` or
// `go run ./cmd/mpass-lint -run <analyzer> ./pkg`.
type mutant struct {
	File, Old, New, Gate string
}

// String names the row by its file and the first line of its snippet.
func (m mutant) String() string {
	first, _, _ := strings.Cut(strings.TrimSpace(m.Old), "\n")
	return fmt.Sprintf("%s: %q", m.File, first)
}

// apply returns src with the row applied. A snippet found zero times or
// more than once is an error naming the row, so a row gone stale after a
// refactor fails instead of passing silently.
func apply(src string, m mutant) (string, error) {
	if n := strings.Count(src, m.Old); n != 1 {
		return "", fmt.Errorf("mutant %v: snippet found %d times, want exactly 1", m, n)
	}
	return strings.Replace(src, m.Old, m.New, 1), nil
}

func TestApply(t *testing.T) {
	m := mutant{File: "x.go", Old: "a == b", New: "a != b"}
	got, err := apply("if a == b {\n}\n", m)
	if err != nil || got != "if a != b {\n}\n" {
		t.Fatalf("one match: got %q, %v", got, err)
	}
	for _, src := range []string{"if a < b {}", "a == b || a == b"} {
		_, err := apply(src, m)
		if err == nil || !strings.Contains(err.Error(), `x.go: "a == b"`) {
			t.Errorf("apply(%q) = %v, want an error naming the row", src, err)
		}
	}
}
