package analysis

import "testing"

// The lint benchmarks price a full run against the per-file baseline on
// the same loaded tree. Loading and type-checking happen once outside
// the timed loop, so the measured cost is one Run: the analyzer sweeps.
// Since the dataflow analyzers were retired, the baseline set is the whole
// analyzer set, and the gate (`make lint-bench`: full <= 2x baseline)
// catches an analyzer added later whose cost outgrows the per-file walks.

func benchLint(b *testing.B, analyzers []*Analyzer) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(pkgs, analyzers)
	}
}

// BenchmarkLintBaseline runs the seven analyzers pinned here by name. The
// lint-bench gate compares it with BenchmarkLintFull, so it catches an
// analyzer added to All() beyond these seven that more than doubles the
// run.
func BenchmarkLintBaseline(b *testing.B) {
	base, err := ByName("nakedgo,weightsguard,determinism,atomics,boundedqueue,ctxflow,zeroalloc")
	if err != nil {
		b.Fatal(err)
	}
	benchLint(b, base)
}

// BenchmarkLintFull runs every analyzer: the `make lint` set.
func BenchmarkLintFull(b *testing.B) {
	benchLint(b, All())
}
