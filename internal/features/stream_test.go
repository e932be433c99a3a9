package features

import (
	"math/rand"
	"strings"
	"testing"

	"mpass/internal/corpus"
)

// feedStream pushes raw through e in pseudo-random chunk sizes up to max.
func feedStream(e *StreamExtractor, raw []byte, max int, rng *rand.Rand) {
	for len(raw) > 0 {
		n := 1
		if max > 1 {
			n += rng.Intn(max)
		}
		if n > len(raw) {
			n = len(raw)
		}
		e.Feed(raw[:n])
		raw = raw[n:]
	}
}

func vecEqual(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: feature %d: stream %v != extract %v", tag, i, got[i], want[i])
		}
	}
}

// TestStreamExtractorPrefixPathExact: samples within the structural cap
// must finish bit-identical to Extract in every family — the stream
// literally replays the buffered prefix through it.
func TestStreamExtractorPrefixPathExact(t *testing.T) {
	g := corpus.NewGenerator(41)
	rng := rand.New(rand.NewSource(42))
	inputs := [][]byte{
		nil,
		[]byte("definitely not a PE file"),
		g.Sample(corpus.Benign).Raw,
		g.Sample(corpus.Malware).Raw,
	}
	for i, raw := range inputs {
		want := Extract(raw)
		for _, max := range []int{1, 7, 129, 1 << 20} {
			e := NewStreamExtractor()
			feedStream(e, raw, max, rng)
			vecEqual(t, "prefix path", e.Finish(), want)
			_ = i
		}
	}
}

// TestStreamExtractorIncrementalExact forces the incremental path (cap 0)
// on inputs whose structural features are zero anyway (no PE header), so
// the whole vector must match Extract exactly under every chunking —
// including window boundaries (255/256/257/383/384), API names straddling
// chunk seams, and back-to-back name occurrences.
func TestStreamExtractorIncrementalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	name := corpus.SensitiveAPIs[0].Name
	base := make([]byte, 4000)
	rng.Read(base)
	base[0] = 0 // never a PE header
	// Splice in printable strings and API names, some adjacent.
	copy(base[100:], "hello world this is a long printable string")
	copy(base[700:], name+name)
	copy(base[1500:], name)
	copy(base[3000:], corpus.BenignAPIs[0].Name)

	structStart := histDim + entHistDim
	structEnd := structStart + headerDim + sectionDim
	for _, L := range []int{1, 5, 100, 255, 256, 257, 383, 384, 1000, 4000} {
		raw := base[:L]
		want := Extract(raw)
		for _, x := range want[structStart:structEnd] {
			if x != 0 {
				t.Fatalf("len %d: test input unexpectedly parsed as PE", L)
			}
		}
		for _, max := range []int{1, 3, 128, 1 << 20} {
			e := NewStreamExtractorCap(0)
			feedStream(e, raw, max, rng)
			vecEqual(t, "incremental", e.Finish(), want)
		}
	}
}

// TestStreamExtractorOverflowDegradesStructuralOnly: past the cap, only
// the header/section block may differ from Extract (it zeroes); every
// byte-level family must still be exact.
func TestStreamExtractorOverflowDegradesStructuralOnly(t *testing.T) {
	g := corpus.NewGenerator(44)
	rng := rand.New(rand.NewSource(45))
	raw := g.Sample(corpus.Malware).Raw
	want := Extract(raw)
	structStart := histDim + entHistDim
	structEnd := structStart + headerDim + sectionDim

	e := NewStreamExtractorCap(16) // force overflow
	feedStream(e, raw, 64, rng)
	got := e.Finish()
	if len(got) != Dim {
		t.Fatalf("dim %d, want %d", len(got), Dim)
	}
	for i := range got {
		if i >= structStart && i < structEnd {
			if got[i] != 0 {
				t.Fatalf("structural feature %d = %v, want 0 in degraded mode", i, got[i])
			}
			continue
		}
		if got[i] != want[i] {
			t.Fatalf("byte-level feature %d: stream %v != extract %v", i, got[i], want[i])
		}
	}
}

// TestAPINamesHaveNoSelfOverlap pins the corpus invariant the seam counter
// relies on: no API name has a proper border (a prefix that is also a
// suffix), so occurrences can never overlap and per-chunk counting plus
// boundary stitching equals strings.Count over the whole sample.
func TestAPINamesHaveNoSelfOverlap(t *testing.T) {
	check := func(name string) {
		for k := 1; k < len(name); k++ {
			if strings.HasPrefix(name, name[len(name)-k:]) {
				t.Errorf("API name %q has a border of length %d; seam counting assumes none", name, k)
			}
		}
	}
	for _, a := range corpus.BenignAPIs {
		check(a.Name)
	}
	for _, a := range corpus.SensitiveAPIs {
		check(a.Name)
	}
}
