package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkDetectorPredict-8   \t    1814\t   1545457 ns/op\t   17120 B/op\t       8 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkDetectorPredict" || r.Iterations != 1814 || r.NsPerOp != 1545457 {
		t.Fatalf("parsed %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 17120 || r.AllocsPerOp == nil || *r.AllocsPerOp != 8 {
		t.Fatalf("memory stats wrong: %+v", r)
	}

	// Custom b.ReportMetric units land in Metrics; sub-benchmark names keep
	// their slash but lose only the trailing -GOMAXPROCS.
	r, ok = parseLine("BenchmarkTrainBatchParallel/workers=4-8  12  9000000 ns/op  1234.5 samples/sec")
	if !ok {
		t.Fatal("sub-benchmark line rejected")
	}
	if r.Name != "BenchmarkTrainBatchParallel/workers=4" {
		t.Fatalf("name = %q", r.Name)
	}
	if r.Metrics["samples/sec"] != 1234.5 {
		t.Fatalf("metrics = %v", r.Metrics)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tmpass\t1.2s",
		"",
		"--- FAIL: TestX",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("non-benchmark line %q accepted", line)
		}
	}
}

func TestCheckGate(t *testing.T) {
	rep := &Report{Benchmarks: []Result{
		{Name: "BenchmarkFloat", NsPerOp: 400},
		{Name: "BenchmarkQuant", NsPerOp: 250},
	}}

	ratio, err := checkGate(rep, "BenchmarkFloat,BenchmarkQuant,1.3")
	if err != nil {
		t.Fatalf("gate should pass at 1.6x: %v", err)
	}
	if ratio != 1.6 {
		t.Fatalf("ratio = %v, want 1.6", ratio)
	}

	if _, err := checkGate(rep, "BenchmarkFloat,BenchmarkQuant,2.0"); err == nil {
		t.Fatal("gate passed below the required speedup")
	}
	if _, err := checkGate(rep, "BenchmarkFloat,BenchmarkMissing,1.1"); err == nil {
		t.Fatal("gate passed with a missing benchmark")
	}
	for _, bad := range []string{"", "a,b", "a,b,c,d", "a,b,zero", "a,b,-1"} {
		if _, err := checkGate(rep, bad); err == nil {
			t.Fatalf("malformed spec %q accepted", bad)
		}
	}
}

// TestRunExistingOut: an -out file that already exists is history. With a
// passing gate the run exits 0 and leaves the file byte-for-byte alone; a
// failing gate still exits 1.
func TestRunExistingOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_1.json")
	const old = "{\"benchmarks\": []}\n"
	if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	const lines = "BenchmarkBase 1 400 ns/op\nBenchmarkNew 1 100 ns/op\n"
	for _, tc := range []struct {
		gate string
		code int
	}{
		{"BenchmarkBase,BenchmarkNew,2", 0},
		{"BenchmarkBase,BenchmarkNew,8", 1},
	} {
		var stderr bytes.Buffer
		code := run([]string{"-gate", tc.gate, "-out", out}, strings.NewReader(lines), io.Discard, &stderr)
		if code != tc.code {
			t.Errorf("gate %s: exit %d, want %d (stderr %q)", tc.gate, code, tc.code, stderr.String())
		}
		if got, _ := os.ReadFile(out); string(got) != old {
			t.Errorf("gate %s: existing -out file rewritten to %q", tc.gate, got)
		}
	}
	// -force regenerates in place.
	if code := run([]string{"-force", "-out", out}, strings.NewReader(lines), io.Discard, io.Discard); code != 0 {
		t.Fatalf("-force run exit %d", code)
	}
	if got, _ := os.ReadFile(out); !strings.Contains(string(got), "BenchmarkNew") {
		t.Fatalf("-force left %q", got)
	}
}
