package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// fastPathConfigs covers the detector shapes: the direct-head MalConv
// layout, a hidden-layer layout whose stride is narrower than the kernel
// (windows overlap), MalGCG's serving shape (K=32, S=16, 16 KiB window), and
// an overlapping kernel that is not a multiple of the 8-byte zero check.
func fastPathConfigs() []ConvConfig {
	return []ConvConfig{
		tinyConfig(),
		{SeqLen: 128, EmbedDim: 4, Kernel: 16, Stride: 8, Filters: 5, Hidden: 6, Seed: 11},
		{SeqLen: 16384, EmbedDim: 4, Kernel: 32, Stride: 16, Filters: 12, Hidden: 8, Seed: 12},
		{SeqLen: 128, EmbedDim: 3, Kernel: 12, Stride: 5, Filters: 7, Seed: 13},
	}
}

// zeroRunInputs returns inputs whose windows repeat the all-zero window,
// the case the table kernel skips: an all-zero input, leading, interior
// and trailing zero runs, scattered unaligned runs, a body of a corpus
// sample's ~3.3 KB share of a 16 KiB window padded to SeqLen, and nonzero
// bytes only past the first 8 bytes of every 16-byte stride, so a
// stride-16 window's first word is always zero.
//
// It adds one input of each length class the kernel's window bound
// (visited) treats differently, and paddingArgmaxInput's input, whose
// first padding window wins a filter's max pool.
func zeroRunInputs(t *testing.T, n *ConvNet, rng *rand.Rand) map[string][]byte {
	cfg := n.Cfg
	L := cfg.SeqLen
	random := func(size int) []byte {
		b := make([]byte, size)
		rng.Read(b)
		return b
	}
	zeroed := func(b []byte, from, to int) []byte {
		for i := from; i < to; i++ {
			b[i] = 0
		}
		return b
	}
	runs := random(L)
	for r := 0; r < 6; r++ {
		at := rng.Intn(L)
		zeroed(runs, at, min(L, at+1+rng.Intn(L/4)))
	}
	behindWord := make([]byte, L)
	for p := 2 * 16; p < L; p++ {
		if p%16 >= 8 {
			behindWord[p] = byte(1 + rng.Intn(255))
		}
	}
	inputs := map[string][]byte{
		"all-zero":       make([]byte, L),
		"leading":        zeroed(random(L), 0, L/3),
		"interior":       zeroed(random(L), L/3, 2*L/3),
		"trailing":       zeroed(random(L), 2*L/3, L),
		"runs":           runs,
		"padded body":    random(L * 3300 / 16384),
		"behind words":   behindWord,
		"padding argmax": paddingArgmaxInput(t, n, rng),
	}
	K, S := cfg.Kernel, cfg.Stride
	for _, m := range []int{0, 1, K - 1, K, S * (L / S / 2), S*(L/S/2) + 1, L - 1, L} {
		inputs[fmt.Sprintf("length %d", m)] = random(m)
	}
	return inputs
}

// paddingArgmaxInput returns a short input of nonzero bytes, so no window
// inside it is all zero, for which the first all-padding window is the
// argmax of at least one filter under the direct forward. A window bound
// that stops one window early never scores that window, so it must lose
// this filter's max pool. It fails t if no such input turns up.
func paddingArgmaxInput(t *testing.T, n *ConvNet, rng *rand.Rand) []byte {
	t.Helper()
	cfg := n.Cfg
	sc := n.getScratch()
	defer n.putScratch(sc)
	for trial := 0; trial < 200; trial++ {
		raw := make([]byte, 1+rng.Intn(2*cfg.Kernel))
		for i := range raw {
			raw[i] = byte(1 + rng.Intn(255))
		}
		first := (len(raw) + cfg.Stride - 1) / cfg.Stride
		c := n.forward(raw, sc)
		for _, w := range c.argmax {
			if w == first {
				return raw
			}
		}
	}
	t.Fatalf("%+v: no input of nonzero bytes has a padding-window argmax", cfg)
	return nil
}

// sameCache fails t unless two forward caches agree bit for bit on every
// field the head and backward consume.
func sameCache(t *testing.T, what string, want, got *cache) {
	t.Helper()
	if want.score != got.score || want.logit != got.logit {
		t.Fatalf("%s: score %v / logit %v != %v / %v", what, want.score, want.logit, got.score, got.logit)
	}
	if !want.pooled.Equal(got.pooled) || !want.cVal.Equal(got.cVal) || !want.gVal.Equal(got.gVal) {
		t.Fatalf("%s: pooled/cVal/gVal differ", what)
	}
	for f := range want.argmax {
		if want.argmax[f] != got.argmax[f] {
			t.Fatalf("%s: argmax[%d] %d != %d", what, f, want.argmax[f], got.argmax[f])
		}
	}
}

// TestTableForwardMatchesDirect is the fast-path parity guarantee: the
// lookup-table forward must agree bit-for-bit with the direct weight-reading
// forward on every cache field backward consumes, for random inputs of
// every length class (short/padded, exact, truncated, and each class the
// window bound treats differently) and for inputs with zero runs, whose
// repeated all-zero windows the table kernel skips.
func TestTableForwardMatchesDirect(t *testing.T) {
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(40 + ci)))
		inputs := zeroRunInputs(t, n, rng)
		for trial := 0; trial < 20; trial++ {
			raw := make([]byte, 1+rng.Intn(2*cfg.SeqLen))
			rng.Read(raw)
			inputs[fmt.Sprintf("random %d", trial)] = raw
		}
		for name, raw := range inputs {
			what := fmt.Sprintf("cfg %d %s", ci, name)
			scD, scT := n.getScratch(), n.getScratch()
			sameCache(t, what, n.forward(raw, scD), n.forwardTable(raw, n.tables(), scT))
			n.putScratch(scD)
			n.putScratch(scT)
		}
	}
}

// TestTablesInvalidatedByTraining checks the weight-version guard: after a
// training step the fast path must serve the new weights, not the cached
// tables.
func TestTablesInvalidatedByTraining(t *testing.T) {
	n, err := NewConvNet(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	xs, ys := markerData(rng, 20)
	probe := xs[0]

	before := n.Predict(probe) // builds tables at version 0
	opt := NewAdam(0.01)
	n.TrainBatch(xs, ys, opt)

	sc := n.getScratch()
	want := n.forward(probe, sc).score
	n.putScratch(sc)
	if got := n.Predict(probe); got != want {
		t.Fatalf("post-training Predict %v != direct forward %v (stale tables?)", got, want)
	}
	if got := n.Predict(probe); got == before {
		t.Fatalf("Predict unchanged (%v) across a training step", got)
	}
}

// TestMarkWeightsChanged pins the contract for direct weight mutation: the
// fast path serves stale scores until MarkWeightsChanged, and correct ones
// after.
func TestMarkWeightsChanged(t *testing.T) {
	n, err := NewConvNet(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte("weight-surgery probe input bytes")
	before := n.Predict(raw)

	n.Embed.Set(int(raw[0]), 0, 5.0) // drastic edit touching raw's first byte
	if got := n.Predict(raw); got != before {
		t.Fatalf("tables rebuilt without MarkWeightsChanged: %v != %v", got, before)
	}
	n.MarkWeightsChanged()
	sc := n.getScratch()
	want := n.forward(raw, sc).score
	n.putScratch(sc)
	if got := n.Predict(raw); got != want {
		t.Fatalf("post-invalidation Predict %v != direct %v", got, want)
	}
	if want == before {
		t.Fatal("probe edit did not move the score; test is vacuous")
	}
}

// TestInputGradientTablePathMatchesDirect checks that the gradient computed
// off a table-path forward equals one computed off a direct forward, on a
// full-length random input, on inputs with zero runs and on every length
// class.
func TestInputGradientTablePathMatchesDirect(t *testing.T) {
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(60 + ci)))
		inputs := zeroRunInputs(t, n, rng)
		inputs["random"] = make([]byte, cfg.SeqLen)
		rng.Read(inputs["random"])
		for name, raw := range inputs {
			ig := n.InputGradient(raw, 0) // table path

			// Direct-path reference: forward + backward without tables.
			sc := n.getScratch()
			c := n.forward(raw, sc)
			ref := n.getInputGrad()
			n.backward(c, 0, ref.Grad, sc)
			n.putScratch(sc)

			if !ig.Grad.Equal(ref.Grad) {
				t.Fatalf("cfg %d %s: input gradients differ between table and direct paths", ci, name)
			}
			if ig.Score != c.score {
				t.Fatalf("cfg %d %s: score %v != %v", ci, name, ig.Score, c.score)
			}
			ig.Release()
			ref.Release()
		}
	}
}

// TestZeroAllocPredict is the allocation-regression gate for the scoring hot
// path: steady-state Predict must not allocate, for short (padded) and long
// (truncated) inputs alike.
func TestZeroAllocPredict(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run via make alloc")
	}
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(80 + ci)))
		short := make([]byte, cfg.SeqLen/2)
		long := make([]byte, 2*cfg.SeqLen)
		rng.Read(short)
		rng.Read(long)
		n.Predict(short) // build tables outside the measured region
		for name, raw := range map[string][]byte{"short": short, "long": long} {
			if got := testing.AllocsPerRun(50, func() { n.Predict(raw) }); got != 0 {
				t.Errorf("cfg %d: Predict(%s) allocates %.0f per run, want 0", ci, name, got)
			}
		}
	}
}

// TestZeroAllocInputGradient gates the attack's unit of work: an
// InputGradient + Release cycle must not allocate in steady state.
func TestZeroAllocInputGradient(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run via make alloc")
	}
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(90 + ci)))
		raw := make([]byte, cfg.SeqLen)
		rng.Read(raw)
		n.InputGradient(raw, 0).Release() // warm pools and tables
		if got := testing.AllocsPerRun(50, func() { n.InputGradient(raw, 0).Release() }); got != 0 {
			t.Errorf("cfg %d: InputGradient allocates %.0f per run, want 0", ci, got)
		}
	}
}
