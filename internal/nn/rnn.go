package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mpass/internal/tensor"
)

// ByteLM is a recurrent byte-level language model. It is the generative
// engine behind the MalRNN baseline (Ebrahimi et al.): trained on benign
// program bytes, it samples "benign-looking" payloads that the attack
// appends to malware. A single tanh recurrent layer is enough to capture
// the local byte statistics (instruction encodings, ASCII runs, padding)
// of the synthetic corpus.
type ByteLM struct {
	EmbedDim, Hidden int

	Embed *tensor.Mat // 256 × E
	Wx    *tensor.Mat // H × E
	Wh    *tensor.Mat // H × H
	Bh    tensor.Vec  // H
	Wo    *tensor.Mat // 256 × H
	Bo    tensor.Vec  // 256

	gEmbed, gWx, gWh, gWo *tensor.Mat
	gBh, gBo              tensor.Vec
}

// NewByteLM builds a randomly initialized language model.
func NewByteLM(embedDim, hidden int, seed int64) *ByteLM {
	rng := rand.New(rand.NewSource(seed))
	lm := &ByteLM{
		EmbedDim: embedDim,
		Hidden:   hidden,
		Embed:    tensor.NewMat(256, embedDim),
		Wx:       tensor.NewMat(hidden, embedDim),
		Wh:       tensor.NewMat(hidden, hidden),
		Bh:       tensor.NewVec(hidden),
		Wo:       tensor.NewMat(256, hidden),
		Bo:       tensor.NewVec(256),
		gEmbed:   tensor.NewMat(256, embedDim),
		gWx:      tensor.NewMat(hidden, embedDim),
		gWh:      tensor.NewMat(hidden, hidden),
		gBh:      tensor.NewVec(hidden),
		gWo:      tensor.NewMat(256, hidden),
		gBo:      tensor.NewVec(256),
	}
	lm.Embed.XavierInit(rng)
	lm.Wx.XavierInit(rng)
	lm.Wh.XavierInit(rng)
	lm.Wo.XavierInit(rng)
	return lm
}

func (lm *ByteLM) params() []tensor.Vec {
	return []tensor.Vec{lm.Embed.Data, lm.Wx.Data, lm.Wh.Data, lm.Bh, lm.Wo.Data, lm.Bo}
}

func (lm *ByteLM) grads() []tensor.Vec {
	return []tensor.Vec{lm.gEmbed.Data, lm.gWx.Data, lm.gWh.Data, lm.gBh, lm.gWo.Data, lm.gBo}
}

// step advances the hidden state by one byte and returns the new state.
func (lm *ByteLM) step(h tensor.Vec, b byte) tensor.Vec {
	x := lm.Embed.Row(int(b))
	nh := tensor.NewVec(lm.Hidden)
	for i := 0; i < lm.Hidden; i++ {
		nh[i] = math.Tanh(tensor.Dot(lm.Wx.Row(i), x) + tensor.Dot(lm.Wh.Row(i), h) + lm.Bh[i])
	}
	return nh
}

// logits returns the next-byte distribution parameters for hidden state h.
func (lm *ByteLM) logits(h tensor.Vec) tensor.Vec {
	out := lm.Wo.MatVec(h)
	tensor.Axpy(1, lm.Bo, out)
	return out
}

func softmax(logits tensor.Vec) tensor.Vec {
	maxv := logits[0]
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	out := tensor.NewVec(len(logits))
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	out.Scale(1 / sum)
	return out
}

// TrainChunk runs truncated BPTT over one byte chunk (predicting chunk[t+1]
// from chunk[..t]) and applies one Adam step. It returns the mean
// cross-entropy over the chunk's predictions.
func (lm *ByteLM) TrainChunk(chunk []byte, opt *Adam) (float64, error) {
	T := len(chunk) - 1
	if T < 1 {
		return 0, fmt.Errorf("nn: chunk of %d bytes is too short to train on", len(chunk))
	}
	for _, g := range lm.grads() {
		g.Zero()
	}

	// Forward, caching states and probabilities.
	hs := make([]tensor.Vec, T+1)
	hs[0] = tensor.NewVec(lm.Hidden)
	probs := make([]tensor.Vec, T)
	var loss float64
	for t := 0; t < T; t++ {
		hs[t+1] = lm.step(hs[t], chunk[t])
		p := softmax(lm.logits(hs[t+1]))
		probs[t] = p
		loss -= math.Log(math.Max(p[chunk[t+1]], 1e-12))
	}

	// Backward through time.
	dhNext := tensor.NewVec(lm.Hidden)
	for t := T - 1; t >= 0; t-- {
		// Output layer: dlogit = p - onehot(target).
		dlogit := probs[t].Clone()
		dlogit[chunk[t+1]] -= 1
		dh := dhNext.Clone()
		for k := 0; k < 256; k++ {
			if dlogit[k] == 0 {
				continue
			}
			tensor.Axpy(dlogit[k], hs[t+1], lm.gWo.Row(k))
			lm.gBo[k] += dlogit[k]
			tensor.Axpy(dlogit[k], lm.Wo.Row(k), dh)
		}
		// Through tanh.
		draw := tensor.NewVec(lm.Hidden)
		for i := 0; i < lm.Hidden; i++ {
			draw[i] = dh[i] * (1 - hs[t+1][i]*hs[t+1][i])
		}
		x := lm.Embed.Row(int(chunk[t]))
		dhNext.Zero()
		dx := tensor.NewVec(lm.EmbedDim)
		for i := 0; i < lm.Hidden; i++ {
			if draw[i] == 0 {
				continue
			}
			tensor.Axpy(draw[i], x, lm.gWx.Row(i))
			tensor.Axpy(draw[i], hs[t], lm.gWh.Row(i))
			lm.gBh[i] += draw[i]
			tensor.Axpy(draw[i], lm.Wx.Row(i), dx)
			tensor.Axpy(draw[i], lm.Wh.Row(i), dhNext)
		}
		tensor.Axpy(1, dx, lm.gEmbed.Row(int(chunk[t])))
	}

	inv := 1 / float64(T)
	for _, g := range lm.grads() {
		g.Scale(inv)
	}
	opt.Step(lm.params(), lm.grads())
	return loss * inv, nil
}

// Generate samples n bytes after priming on prime, using the given
// temperature (1 = model distribution; lower = greedier).
func (lm *ByteLM) Generate(prime []byte, n int, temperature float64, rng *rand.Rand) []byte {
	if temperature <= 0 {
		temperature = 1
	}
	h := tensor.NewVec(lm.Hidden)
	if len(prime) == 0 {
		prime = []byte{0}
	}
	for _, b := range prime {
		h = lm.step(h, b)
	}
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		lg := lm.logits(h)
		lg.Scale(1 / temperature)
		p := softmax(lg)
		r := rng.Float64()
		var acc float64
		var pick byte
		for k := 0; k < 256; k++ {
			acc += p[k]
			if r <= acc {
				pick = byte(k)
				break
			}
		}
		out = append(out, pick)
		h = lm.step(h, pick)
	}
	return out
}
