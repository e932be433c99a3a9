// Package analysis is the repo's static-analysis framework: a small,
// stdlib-only (go/parser + go/types, no x/tools) analyzer harness plus the
// mpass-specific invariant checks that cmd/mpass-lint runs over the tree.
//
// The invariants it guards were bought with parity and race tests in PRs
// 1–3 — bit-identical scoring across worker counts and the lookup-table
// fast path, pool-mediated concurrency, shed-or-bounded-wait serving
// queues, zero-allocation steady-state hot paths. Runtime tests catch a
// regression after it ships; the analyzers here reject the shapes of code
// that cause one at lint time. Every analyzer is a walk over one package's
// syntax and types; the serving tier's generation, cache-key, fail-closed
// and locking contracts are guarded by runtime tests instead, each proved
// by a row of the mutant table in internal/mutants.
//
// Findings can be silenced case by case with
//
//	//lint:ignore <analyzer> <reason>
//
// placed at the end of the flagged line or on its own line directly above.
// The reason is mandatory; a directive without one is itself reported. A
// directive whose analyzer no longer fires on the covered lines is
// reported by the pseudo-analyzer "suppressions", so dead waivers cannot
// accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	Name string // short identifier, used in //lint:ignore directives
	Doc  string // one-line description of the invariant
	Run  func(*Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package (test files excluded).
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Timing is one analyzer's wall-clock share of a run.
type Timing struct {
	Analyzer string        `json:"analyzer"`
	Duration time.Duration `json:"duration_ns"`
}

// All returns the full analyzer set in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NakedGo,
		WeightsGuard,
		Determinism,
		Atomics,
		BoundedQueue,
		CtxFlow,
		ZeroAlloc,
	}
}

// ByName resolves a comma-separated analyzer list against All, erroring on
// unknown names.
func ByName(list string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run applies the analyzers to every package, drops findings covered by a
// //lint:ignore directive, and returns the rest sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(pkgs, analyzers)
	return diags
}

// RunTimed is Run plus per-analyzer wall-time: each analyzer sweeps all
// packages before the next begins.
//
// Suppression handling reports two pseudo-analyzers of its own: "lint" for
// malformed directives (missing analyzer name or reason) and
// "suppressions" for stale ones — a directive that covered nothing this
// run, provided its analyzer actually ran (so a subset -run does not flag
// other analyzers' waivers) or is unknown to the framework entirely.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	var timings []Timing
	var raw []Diagnostic
	for _, a := range analyzers {
		t0 := time.Now()
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &raw})
		}
		timings = append(timings, Timing{Analyzer: a.Name, Duration: time.Since(t0)})
	}

	sup, malformed := collectSuppressions(pkgs)
	var out []Diagnostic
	for _, d := range raw {
		if sup.covers(d) {
			continue
		}
		out = append(out, d)
	}
	out = append(out, malformed...)
	out = append(out, staleSuppressions(sup, analyzers)...)

	for i := range out {
		out[i].File = out[i].Pos.Filename
		out[i].Line = out[i].Pos.Line
		out[i].Col = out[i].Pos.Column
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, timings
}

// staleSuppressions turns unused directives into findings. Two rounds: the
// first flags ordinary stale directives and lets a //lint:ignore
// suppressions waiver (with a reason) cover them; the second flags
// suppressions-waivers that themselves covered nothing.
func staleSuppressions(sup *suppressions, ran []*Analyzer) []Diagnostic {
	active := map[string]bool{"lint": true, "suppressions": true}
	for _, a := range ran {
		active[a.Name] = true
	}
	known := map[string]bool{"lint": true, "suppressions": true, "*": true}
	for _, a := range All() {
		known[a.Name] = true
	}

	stale := func(wantSupWaivers bool) []Diagnostic {
		var out []Diagnostic
		for _, e := range sup.entries {
			if e.used || (e.analyzer == "suppressions") != wantSupWaivers {
				continue
			}
			reason := "never fires there"
			if !known[e.analyzer] {
				reason = "no such analyzer"
			} else if !active[e.analyzer] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      e.pos,
				Analyzer: "suppressions",
				Message: fmt.Sprintf("stale //lint:ignore %s: the analyzer %s; delete the directive or re-justify it",
					e.analyzer, reason),
			})
		}
		return out
	}

	var out []Diagnostic
	for _, d := range stale(false) {
		if !sup.covers(d) {
			out = append(out, d)
		}
	}
	out = append(out, stale(true)...)
	return out
}

// supEntry is one parsed //lint:ignore directive and whether it covered a
// finding this run.
type supEntry struct {
	pos      token.Position
	analyzer string
	used     bool
}

// suppressions indexes directives by file -> line -> analyzer. A directive
// covers its own line (trailing-comment form) and the line below it
// (directive-above form).
type suppressions struct {
	index   map[string]map[int]map[string]*supEntry
	entries []*supEntry
}

func (s *suppressions) covers(d Diagnostic) bool {
	lines := s.index[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range [2]string{d.Analyzer, "*"} {
			if e := lines[ln][name]; e != nil {
				e.used = true
				return true
			}
		}
	}
	return false
}

const ignoreDirective = "lint:ignore"

// collectSuppressions scans every comment in every file for lint:ignore
// directives, returning the suppression index and diagnostics for
// malformed directives.
func collectSuppressions(pkgs []*Package) (*suppressions, []Diagnostic) {
	sup := &suppressions{index: map[string]map[int]map[string]*supEntry{}}
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Directive form only: no space after //, like go:build.
					// "// lint:ignore ..." is prose about a directive, not one.
					text, isLine := strings.CutPrefix(c.Text, "//")
					if !isLine || !strings.HasPrefix(text, ignoreDirective) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\" with a non-empty reason",
						})
						continue
					}
					lines := sup.index[pos.Filename]
					if lines == nil {
						lines = map[int]map[string]*supEntry{}
						sup.index[pos.Filename] = lines
					}
					if lines[pos.Line] == nil {
						lines[pos.Line] = map[string]*supEntry{}
					}
					entry := &supEntry{pos: pos, analyzer: fields[0]}
					lines[pos.Line][fields[0]] = entry
					sup.entries = append(sup.entries, entry)
				}
			}
		}
	}
	return sup, malformed
}
