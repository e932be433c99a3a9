package nn

import (
	"math"
	"math/rand"
	"testing"
)

// quantBound pins the certified absolute score-deviation bound of int32
// serving (≤ 1e-6, re-proven on the full eval corpus by the detect-level
// gate).
const quantBound = 1e-6

func TestQuantModeParse(t *testing.T) {
	for _, m := range []QuantMode{QuantOff, QuantInt32} {
		got, err := ParseQuantMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseQuantMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, s := range []string{"float128", "int16"} {
		if _, err := ParseQuantMode(s); err == nil {
			t.Fatalf("ParseQuantMode accepted %q", s)
		}
	}
}

// TestQuantForwardWithinBound is the package-level half of the error-bound
// gate: for both detector shapes, int32 scores must stay within the
// certified bound of the float64 table path — on fresh weights and on
// weights grown by training.
func TestQuantForwardWithinBound(t *testing.T) {
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(200 + ci)))
		// A few training steps widen the table's dynamic range beyond the
		// Xavier init, making the bound check non-vacuous.
		xs, ys := markerData(rng, 16)
		opt := NewAdam(0.01)
		for e := 0; e < 3; e++ {
			n.TrainBatch(xs, ys, opt)
		}
		for trial := 0; trial < 20; trial++ {
			raw := make([]byte, 1+rng.Intn(2*cfg.SeqLen))
			rng.Read(raw)
			n.SetQuantMode(QuantOff)
			want := n.Predict(raw)
			n.SetQuantMode(QuantInt32)
			got := n.Predict(raw)
			if dev := math.Abs(got - want); dev > quantBound {
				t.Errorf("cfg %d trial %d: |%v - %v| = %g exceeds %g",
					ci, trial, got, want, dev, quantBound)
			}
			n.SetQuantMode(QuantOff)
		}
	}
}

// TestQuantTablesInvalidatedByTraining checks the weight-version guard on
// the fixed-point path: after a training step the quantized tables must be
// rebuilt from the new weights.
func TestQuantTablesInvalidatedByTraining(t *testing.T) {
	n, err := NewConvNet(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.SetQuantMode(QuantInt32)
	rng := rand.New(rand.NewSource(47))
	xs, ys := markerData(rng, 20)
	probe := xs[0]

	before := n.Predict(probe) // builds quant tables at version 0
	n.TrainBatch(xs, ys, NewAdam(0.01))

	sc := n.getScratch()
	want := n.forward(probe, sc).score
	n.putScratch(sc)
	got := n.Predict(probe)
	if math.Abs(got-want) > quantBound {
		t.Fatalf("post-training quant Predict %v not within bound of direct %v (stale tables?)", got, want)
	}
	if got == before {
		t.Fatalf("quant Predict unchanged (%v) across a training step", got)
	}
}

// TestQuantModeOffRestoresBitExact pins that switching quantization off
// returns to the bit-identical float64 table path, and that mode switches
// are cheap round trips.
func TestQuantModeOffRestoresBitExact(t *testing.T) {
	n, err := NewConvNet(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	raw := make([]byte, n.Cfg.SeqLen)
	rng.Read(raw)

	sc := n.getScratch()
	want := n.forward(raw, sc).score
	n.putScratch(sc)

	n.SetQuantMode(QuantInt32)
	n.Predict(raw)
	n.SetQuantMode(QuantOff)
	if got := n.Predict(raw); got != want {
		t.Fatalf("Predict after quant round trip %v != direct %v", got, want)
	}
}

// TestQuantGobDecodeRebuilds pins the persistence contract: quantized
// tables never travel through gob, and a decode into a quant-enabled
// receiver serves fresh fixed-point tables derived from the loaded weights.
func TestQuantGobDecodeRebuilds(t *testing.T) {
	src, err := NewConvNet(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(49))
	xs, ys := markerData(rng, 16)
	src.TrainBatch(xs, ys, NewAdam(0.01))

	blob, err := src.GobEncode()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewConvNet(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dst.SetQuantMode(QuantInt32)
	dst.Predict(xs[0]) // populate quant tables for the pre-decode weights
	if err := dst.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if dst.QuantMode() != QuantInt32 {
		t.Fatalf("decode reset quant mode to %v", dst.QuantMode())
	}
	src.SetQuantMode(QuantInt32)
	for _, raw := range xs {
		if got, want := dst.Predict(raw), src.Predict(raw); got != want {
			t.Fatalf("decoded quant Predict %v != source %v (stale quant tables?)", got, want)
		}
	}
}

// TestZeroAllocPredictQuant extends the allocation-regression gate to the
// fixed-point path.
func TestZeroAllocPredictQuant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run via make alloc")
	}
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(210 + ci)))
		raw := make([]byte, cfg.SeqLen)
		rng.Read(raw)
		n.SetQuantMode(QuantInt32)
		n.Predict(raw) // build tables outside the measured region
		if got := testing.AllocsPerRun(50, func() { n.Predict(raw) }); got != 0 {
			t.Errorf("cfg %d: quant Predict allocates %.0f per run, want 0", ci, got)
		}
		n.SetQuantMode(QuantOff)
	}
}
