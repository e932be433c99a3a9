package nn

import (
	"math/rand"
	"testing"
)

// feedChunks pushes raw through the stream in chunks of at most size bytes.
func feedChunks(s *ConvStream, raw []byte, size int) {
	for len(raw) > 0 {
		n := size
		if n > len(raw) {
			n = len(raw)
		}
		s.Feed(raw[:n])
		raw = raw[n:]
	}
}

// TestConvStreamMatchesPredict is the streaming equivalence gate at the
// network level: for every chunking, input length class (short/padded,
// exact, truncated), and table mode, Feed/Finish must reproduce Predict
// bit for bit.
func TestConvStreamMatchesPredict(t *testing.T) {
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(300 + ci)))
		lengths := []int{1, cfg.SeqLen / 3, cfg.SeqLen, 2*cfg.SeqLen + 5}
		chunks := []int{1, 7, 64, 1 << 20}
		for _, mode := range []QuantMode{QuantOff, QuantInt32} {
			n.SetQuantMode(mode)
			for _, L := range lengths {
				raw := make([]byte, L)
				rng.Read(raw)
				want := n.Predict(raw)
				for _, sz := range chunks {
					s := n.NewStream()
					feedChunks(s, raw, sz)
					if got := s.Finish(); got != want {
						t.Fatalf("cfg %d mode %v len %d chunk %d: stream %v != Predict %v",
							ci, mode, L, sz, got, want)
					}
				}
			}
		}
		n.SetQuantMode(QuantOff)
	}
}

// TestZeroAllocConvStream gates the streaming unit of work: a NewStream +
// Feed + Finish cycle must not allocate in steady state, in float and
// fixed-point modes alike.
func TestZeroAllocConvStream(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run via make alloc")
	}
	for ci, cfg := range fastPathConfigs() {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(310 + ci)))
		raw := make([]byte, 2*cfg.SeqLen)
		rng.Read(raw)
		for _, mode := range []QuantMode{QuantOff, QuantInt32} {
			n.SetQuantMode(mode)
			n.NewStream().Finish() // warm pools and tables
			got := testing.AllocsPerRun(50, func() {
				s := n.NewStream()
				feedChunks(s, raw, 1024)
				s.Finish()
			})
			if got != 0 {
				t.Errorf("cfg %d mode %v: stream cycle allocates %.0f per run, want 0", ci, mode, got)
			}
		}
		n.SetQuantMode(QuantOff)
	}
}
