package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mpass/internal/tensor"
)

// perplexity evaluates lm on a byte sequence without training.
func perplexity(lm *ByteLM, seq []byte) float64 {
	T := len(seq) - 1
	if T < 1 {
		return math.Inf(1)
	}
	h := tensor.NewVec(lm.Hidden)
	var nll float64
	for t := 0; t < T; t++ {
		h = lm.step(h, seq[t])
		p := softmax(lm.logits(h))
		nll -= math.Log(math.Max(p[seq[t+1]], 1e-12))
	}
	return math.Exp(nll / float64(T))
}

func TestByteLMLearnsRepetition(t *testing.T) {
	lm := NewByteLM(4, 16, 1)
	opt := NewAdam(0.01)
	// Highly predictable stream: "ABABAB...".
	chunk := bytes.Repeat([]byte{'A', 'B'}, 32)
	var first, last float64
	for i := 0; i < 60; i++ {
		l, err := lm.TrainChunk(chunk, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = l
		}
		last = l
	}
	if last >= first/2 {
		t.Errorf("loss barely moved: %v -> %v", first, last)
	}
	if p := perplexity(lm, chunk); p > 3 {
		t.Errorf("perplexity on training stream = %v, want < 3", p)
	}
}

func TestByteLMGenerateFollowsPattern(t *testing.T) {
	lm := NewByteLM(4, 16, 2)
	opt := NewAdam(0.01)
	chunk := bytes.Repeat([]byte{'x', 'y', 'z'}, 40)
	for i := 0; i < 120; i++ {
		if _, err := lm.TrainChunk(chunk, opt); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	out := lm.Generate([]byte{'x', 'y', 'z', 'x'}, 30, 0.2, rng)
	if len(out) != 30 {
		t.Fatalf("generated %d bytes, want 30", len(out))
	}
	// A trained LM should emit mostly in-alphabet bytes.
	inAlpha := 0
	for _, b := range out {
		if b == 'x' || b == 'y' || b == 'z' {
			inAlpha++
		}
	}
	if inAlpha < 24 {
		t.Errorf("only %d/30 generated bytes in training alphabet", inAlpha)
	}
}

func TestByteLMTrainChunkTooShort(t *testing.T) {
	lm := NewByteLM(2, 4, 1)
	if _, err := lm.TrainChunk([]byte{1}, NewAdam(0.01)); err == nil {
		t.Error("1-byte chunk accepted")
	}
}

func TestByteLMGenerateEmptyPrime(t *testing.T) {
	lm := NewByteLM(2, 4, 1)
	rng := rand.New(rand.NewSource(1))
	out := lm.Generate(nil, 5, 1, rng)
	if len(out) != 5 {
		t.Errorf("generated %d bytes, want 5", len(out))
	}
	// Temperature <= 0 falls back to 1 rather than dividing by zero.
	out = lm.Generate(nil, 3, 0, rng)
	if len(out) != 3 {
		t.Errorf("generated %d bytes with temp=0, want 3", len(out))
	}
}

func TestAdamConverges(t *testing.T) {
	// Minimize (x-3)^2 with Adam as a sanity check.
	x := tensor.Vec{0}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		g := tensor.Vec{2 * (x[0] - 3)}
		opt.Step([]tensor.Vec{x}, []tensor.Vec{g})
	}
	if d := x[0] - 3; d > 0.05 || d < -0.05 {
		t.Errorf("Adam converged to %v, want 3", x[0])
	}
}
