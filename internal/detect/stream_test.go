package detect

import "testing"

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

// TestStreamingMatchesScore is the CI streaming-equivalence gate: for all
// four offline detectors, every chunking of every eval sample must stream
// to exactly the score the buffered path computes.
func TestStreamingMatchesScore(t *testing.T) {
	mc, nng, lg, gcg := models(t)
	raws := rawsOf(dataset(t).Test)
	if len(raws) > 8 {
		raws = raws[:8]
	}
	for _, d := range []Detector{mc, nng, lg, gcg} {
		st, ok := d.(Streamer)
		if !ok {
			t.Fatalf("%s does not implement Streamer", d.Name())
		}
		for i, raw := range raws {
			want := d.Score(raw)
			for _, sz := range []int{1, 97, 4096, 1 << 24} {
				if got := streamScore(st, raw, sz); got != want {
					t.Fatalf("%s sample %d chunk %d: stream %v != score %v",
						d.Name(), i, sz, got, want)
				}
			}
		}
	}
}
