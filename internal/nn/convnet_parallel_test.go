package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// cloneNet builds a second, independently allocated network with the same
// seed, so two training runs share no state.
func cloneNet(t *testing.T, cfg ConvConfig) (*ConvNet, *ConvNet) {
	t.Helper()
	a, err := NewConvNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConvNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestTrainBatchParallelParity is the determinism guarantee of the parallel
// engine: training with Workers=1 and Workers=8 must produce bit-identical
// losses and weights at every step, on both architectures (direct head and
// hidden layer + NonNeg clamp).
func TestTrainBatchParallelParity(t *testing.T) {
	configs := []ConvConfig{
		tinyConfig(),
		{SeqLen: 128, EmbedDim: 4, Kernel: 16, Stride: 8, Filters: 5, Hidden: 6, NonNeg: true, Seed: 11},
	}
	for _, cfg := range configs {
		serial, par := cloneNet(t, cfg)
		serial.Workers = 1
		par.Workers = 8

		rng := rand.New(rand.NewSource(21))
		xs, ys := markerData(rng, 30)
		optS, optP := NewAdam(0.01), NewAdam(0.01)
		for step := 0; step < 5; step++ {
			ls := serial.TrainBatch(xs, ys, optS)
			lp := par.TrainBatch(xs, ys, optP)
			if ls != lp {
				t.Fatalf("step %d: loss %v (serial) != %v (parallel)", step, ls, lp)
			}
		}
		ps, pp := serial.params(), par.params()
		for i := range ps {
			if !ps[i].Equal(pp[i]) {
				t.Fatalf("parameter tensor %d differs between Workers=1 and Workers=8", i)
			}
		}
	}
}

// TestPredictBatchMatchesPredict checks the batched scoring path against the
// one-sample API for several worker counts.
func TestPredictBatchMatchesPredict(t *testing.T) {
	n, err := NewConvNet(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	raws := make([][]byte, 17)
	for i := range raws {
		raws[i] = make([]byte, 16+rng.Intn(300))
		rng.Read(raws[i])
	}
	want := make([]float64, len(raws))
	for i, r := range raws {
		want[i] = n.Predict(r)
	}
	for _, workers := range []int{0, 1, 4} {
		n.Workers = workers
		got := n.PredictBatch(raws)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sample %d: batch %v != single %v", workers, i, got[i], want[i])
			}
		}
	}
	if out := n.PredictBatch(nil); len(out) != 0 {
		t.Errorf("PredictBatch(nil) returned %d scores", len(out))
	}
}

// TestInputGradientConcurrent: attack workers share one network, so
// InputGradient must be safe from several goroutines at once — it writes
// only its own result and scratch, never the shared parameter-gradient
// buffers — and every concurrent result must equal the serial one bit for
// bit. `make race` runs it under the race detector.
func TestInputGradientConcurrent(t *testing.T) {
	configs := []ConvConfig{
		tinyConfig(),
		{SeqLen: 128, EmbedDim: 4, Kernel: 16, Stride: 8, Filters: 5, Hidden: 6, NonNeg: true, Seed: 11},
	}
	for ci, cfg := range configs {
		n, err := NewConvNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(70 + ci)))
		raws := make([][]byte, 8)
		want := make([]*InputGrad, len(raws))
		for i := range raws {
			raws[i] = make([]byte, 32+rng.Intn(cfg.SeqLen))
			rng.Read(raws[i])
			want[i] = n.InputGradient(raws[i], 0)
		}

		const workers = 4
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					for k := range raws {
						i := (k + w) % len(raws)
						ig := n.InputGradient(raws[i], 0)
						if !ig.Grad.Equal(want[i].Grad) || ig.Loss != want[i].Loss || ig.Score != want[i].Score {
							errs <- fmt.Sprintf("cfg %d worker %d sample %d: concurrent result differs from serial", ci, w, i)
							return
						}
						ig.Release()
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
