package nn

import (
	"math/rand"
	"testing"
)

// fastPathConfigs covers both detector shapes: the direct-head MalConv
// layout and the hidden-layer MalGCG layout (with a stride narrower than
// the kernel, so windows overlap).
func fastPathConfigs() []ConvConfig {
	return []ConvConfig{
		tinyConfig(),
		{SeqLen: 128, EmbedDim: 4, Kernel: 16, Stride: 8, Filters: 5, Hidden: 6, Seed: 11},
	}
}

// TestTableForwardMatchesDirect is the fast-path parity guarantee: the
// lookup-table forward must agree bit-for-bit with the direct weight-reading
// forward on every cache field backward consumes, for random inputs of
// every length class (short/padded, exact, truncated).
func TestTableForwardMatchesDirect(t *testing.T) {
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(40 + ci)))
		for trial := 0; trial < 20; trial++ {
			raw := make([]byte, 1+rng.Intn(2*cfg.SeqLen))
			rng.Read(raw)

			scD, scT := n.getScratch(), n.getScratch()
			d := n.forward(raw, scD)
			tb := n.forwardTable(raw, n.tables(), scT)

			if d.score != tb.score || d.logit != tb.logit {
				t.Fatalf("cfg %d trial %d: direct score %v / logit %v != table %v / %v",
					ci, trial, d.score, d.logit, tb.score, tb.logit)
			}
			if !d.pooled.Equal(tb.pooled) || !d.cVal.Equal(tb.cVal) || !d.gVal.Equal(tb.gVal) {
				t.Fatalf("cfg %d trial %d: pooled/cVal/gVal differ between paths", ci, trial)
			}
			for f := range d.argmax {
				if d.argmax[f] != tb.argmax[f] {
					t.Fatalf("cfg %d trial %d: argmax[%d] %d != %d", ci, trial, f, d.argmax[f], tb.argmax[f])
				}
			}
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
// off a table-path forward equals one computed off a direct forward.
func TestInputGradientTablePathMatchesDirect(t *testing.T) {
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(60 + ci)))
		raw := make([]byte, cfg.SeqLen)
		rng.Read(raw)

		ig := n.InputGradient(raw, 0) // table path

		// Direct-path reference: forward + backward without tables.
		sc := n.getScratch()
		c := n.forward(raw, sc)
		ref := n.getInputGrad()
		n.backward(c, 0, ref.Grad, sc)
		n.putScratch(sc)

		if !ig.Grad.Equal(ref.Grad) {
			t.Fatalf("cfg %d: input gradients differ between table and direct paths", ci)
		}
		if ig.Score != c.score {
			t.Fatalf("cfg %d: score %v != %v", ci, ig.Score, c.score)
		}
		ig.Release()
		ref.Release()
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
