package detect

import (
	"testing"

	"mpass/internal/nn"
)

// streamScore runs raw through d's streaming scorer in chunks of size sz.
func streamScore(d Streamer, raw []byte, sz int) float64 {
	s := d.NewStream()
	for len(raw) > 0 {
		n := sz
		if n > len(raw) {
			n = len(raw)
		}
		s.Feed(raw[:n])
		raw = raw[n:]
	}
	return s.Finish()
}

// setQuantMode switches each conv detector to the given table format.
func setQuantMode(m nn.QuantMode, dets ...*ConvDetector) {
	for _, d := range dets {
		d.SetQuantMode(m)
	}
}

// TestStreamingMatchesScore is the CI streaming-equivalence gate: for all
// four offline detectors, every chunking of every eval sample must stream
// to exactly the score the buffered path computes — in the float64
// reference mode and with fixed-point tables enabled.
func TestStreamingMatchesScore(t *testing.T) {
	mc, nng, lg, gcg := models(t)
	convs := []*ConvDetector{mc, nng, gcg}
	defer setQuantMode(nn.QuantOff, convs...)
	raws := rawsOf(dataset(t).Test)
	if len(raws) > 8 {
		raws = raws[:8]
	}
	for _, mode := range []nn.QuantMode{nn.QuantOff, nn.QuantInt32} {
		setQuantMode(mode, convs...)
		for _, d := range []Detector{mc, nng, lg, gcg} {
			st, ok := d.(Streamer)
			if !ok {
				t.Fatalf("%s does not implement Streamer", d.Name())
			}
			for i, raw := range raws {
				want := d.Score(raw)
				for _, sz := range []int{1, 97, 4096, 1 << 24} {
					if got := streamScore(st, raw, sz); got != want {
						t.Fatalf("%s mode %v sample %d chunk %d: stream %v != score %v",
							d.Name(), mode, i, sz, got, want)
					}
				}
			}
		}
	}
}

// quantEvalBound is the certified int32 score-deviation bound over the
// eval corpus.
const quantEvalBound = 1e-6

// TestQuantParityOnEvalCorpus is the quantization error-bound gate from
// the serving spec: across the full eval corpus (train + test splits),
// int32 fixed-point scores of every neural detector must stay within 1e-6
// of the float64 reference and flip zero hard labels.
func TestQuantParityOnEvalCorpus(t *testing.T) {
	mc, nng, _, gcg := models(t)
	dets := []*ConvDetector{mc, nng, gcg}
	defer setQuantMode(nn.QuantOff, dets...)
	ds := dataset(t)
	raws := append(rawsOf(ds.Train), rawsOf(ds.Test)...)

	ref := make([][]float64, len(dets))
	setQuantMode(nn.QuantOff, dets...)
	for i, d := range dets {
		ref[i] = ScoreAll(d, raws, 0)
	}
	setQuantMode(nn.QuantInt32, dets...)
	for i, d := range dets {
		got := ScoreAll(d, raws, 0)
		var maxDev float64
		flips := 0
		for j := range raws {
			dev := got[j] - ref[i][j]
			if dev < 0 {
				dev = -dev
			}
			if dev > maxDev {
				maxDev = dev
			}
			if (got[j] >= d.Threshold) != (ref[i][j] >= d.Threshold) {
				flips++
			}
		}
		if maxDev > quantEvalBound {
			t.Errorf("%s: max int32 |dev| %.3g over %d samples exceeds %.0g",
				d.Name(), maxDev, len(raws), quantEvalBound)
		}
		if flips != 0 {
			t.Errorf("%s: int32 flips %d labels, want 0", d.Name(), flips)
		}
	}
}
