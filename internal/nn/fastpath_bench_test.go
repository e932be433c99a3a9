package nn

import (
	"math/rand"
	"testing"
)

// The kernel benchmarks score a random full-length input, which has no
// padding and no zero windows, so they time every window of the table
// kernel.
//
// The shape is the MalConv/NonNeg serving configuration (detect.SeqLen =
// 16384); the literal is repeated here because internal/nn cannot import
// internal/detect.
func servingNet(b *testing.B) (*ConvNet, []byte) {
	b.Helper()
	n, err := NewConvNet(ConvConfig{
		SeqLen: 16384, EmbedDim: 4, Kernel: 8, Stride: 8, Filters: 8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]byte, 16384)
	rand.New(rand.NewSource(2)).Read(raw)
	return n, raw
}

func BenchmarkPredictTableFloat(b *testing.B) {
	n, raw := servingNet(b)
	n.Predict(raw) // build tables outside the timed region
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Predict(raw)
	}
}

func BenchmarkConvStream(b *testing.B) {
	n, raw := servingNet(b)
	n.NewStream().Finish()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := n.NewStream()
		feedChunks(s, raw, 4096)
		s.Finish()
	}
}
