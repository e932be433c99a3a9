package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"mpass/internal/parallel"
	"mpass/internal/tensor"
)

// ConvConfig parameterizes a gated byte-convolution classifier.
//
// The detectors instantiated from this one architecture:
//
//   - MalConv (Raff et al.): one gated conv block, direct dense head.
//   - NonNeg (Fleshman et al.): same, with the head weights constrained
//     non-negative after every optimizer step.
//   - MalGCG stand-in (Raff et al. 2021): wider receptive field plus a
//     hidden layer, approximating the deeper constant-memory model.
type ConvConfig struct {
	SeqLen   int  // input length in bytes (truncate/zero-pad)
	EmbedDim int  // byte embedding dimensionality
	Kernel   int  // convolution window, in bytes
	Stride   int  // convolution stride, in bytes
	Filters  int  // number of gated filters
	Hidden   int  // hidden dense units; 0 = logistic head directly on pool
	NonNeg   bool // clamp head weights >= 0 after each step
	Seed     int64
}

// Validate reports configuration errors early.
func (c ConvConfig) Validate() error {
	switch {
	case c.SeqLen <= 0 || c.EmbedDim <= 0 || c.Filters <= 0:
		return fmt.Errorf("nn: non-positive dimension in %+v", c)
	case c.Kernel <= 0 || c.Stride <= 0:
		return fmt.Errorf("nn: non-positive kernel/stride in %+v", c)
	case c.Kernel > c.SeqLen:
		return fmt.Errorf("nn: kernel %d exceeds sequence %d", c.Kernel, c.SeqLen)
	}
	return nil
}

// positions returns the number of convolution windows.
func (c ConvConfig) positions() int { return (c.SeqLen-c.Kernel)/c.Stride + 1 }

// ConvNet is a gated 1-D convolutional byte classifier with max-over-time
// pooling — the MalConv architecture.
type ConvNet struct {
	Cfg ConvConfig

	// Workers bounds the data parallelism of TrainBatch and PredictBatch
	// (<= 0 selects GOMAXPROCS). Results are bit-identical for every value:
	// the forward passes fan out, but losses and gradients are always
	// accumulated in sample order.
	Workers int

	Embed        *tensor.Mat // 256 × D byte embeddings
	ConvW, GateW *tensor.Mat // F × K·D
	ConvB, GateB tensor.Vec  // F
	HidW         *tensor.Mat // H × F (nil when Hidden == 0)
	HidB         tensor.Vec  // H
	OutW         tensor.Vec  // H (or F when no hidden layer)
	OutB         tensor.Vec  // 1

	// gradient accumulators, parallel to the parameters above
	gEmbed, gConvW, gGateW *tensor.Mat
	gConvB, gGateB         tensor.Vec
	gHidW                  *tensor.Mat
	gHidB, gOutW, gOutB    tensor.Vec

	// Inference fast path (fastpath.go). weightVersion counts weight
	// mutations; tab caches the byte-response tables built at a specific
	// version, so any training step transparently invalidates them.
	weightVersion uint64
	tab           atomic.Pointer[respTable]
	tabMu         sync.Mutex

	// Fixed-point variant (quant.go): quantMode selects the served table
	// format, qtab caches the quantized image of the float table for one
	// (version, mode) pair. Never persisted — rebuilt lazily after any
	// weight change, mode switch, or gob decode.
	quantMode atomic.Int32
	qtab      atomic.Pointer[quantTable]
	qtabMu    sync.Mutex

	// Reusable per-call buffers: scratchPool holds forward/backward scratch
	// (one per in-flight forward), igPool recycles InputGrad results after
	// Release, streamPool recycles ConvStream shells (stream.go). All three
	// make steady-state Predict, InputGradient, and stream scoring
	// allocation free.
	scratchPool sync.Pool
	igPool      sync.Pool
	streamPool  sync.Pool

	// paramList/gradList are the fixed param/grad slice sets, built once so
	// params()/grads() don't allocate on the zeroGrads hot path.
	paramList, gradList []tensor.Vec
}

// NewConvNet builds and randomly initializes the network.
func NewConvNet(cfg ConvConfig) (*ConvNet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	kd := cfg.Kernel * cfg.EmbedDim
	n := &ConvNet{
		Cfg:    cfg,
		Embed:  tensor.NewMat(256, cfg.EmbedDim),
		ConvW:  tensor.NewMat(cfg.Filters, kd),
		GateW:  tensor.NewMat(cfg.Filters, kd),
		ConvB:  tensor.NewVec(cfg.Filters),
		GateB:  tensor.NewVec(cfg.Filters),
		OutB:   tensor.NewVec(1),
		gEmbed: tensor.NewMat(256, cfg.EmbedDim),
		gConvW: tensor.NewMat(cfg.Filters, kd),
		gGateW: tensor.NewMat(cfg.Filters, kd),
		gConvB: tensor.NewVec(cfg.Filters),
		gGateB: tensor.NewVec(cfg.Filters),
		gOutB:  tensor.NewVec(1),
	}
	n.Embed.XavierInit(rng)
	n.ConvW.XavierInit(rng)
	n.GateW.XavierInit(rng)
	if cfg.Hidden > 0 {
		n.HidW = tensor.NewMat(cfg.Hidden, cfg.Filters)
		n.HidW.HeInit(rng)
		n.HidB = tensor.NewVec(cfg.Hidden)
		n.OutW = tensor.NewVec(cfg.Hidden)
		n.gHidW = tensor.NewMat(cfg.Hidden, cfg.Filters)
		n.gHidB = tensor.NewVec(cfg.Hidden)
	} else {
		n.OutW = tensor.NewVec(cfg.Filters)
	}
	lim := math.Sqrt(6.0 / float64(len(n.OutW)+1))
	for i := range n.OutW {
		n.OutW[i] = (rng.Float64()*2 - 1) * lim
	}
	n.gOutW = tensor.NewVec(len(n.OutW))
	return n, nil
}

// params and grads expose the trainable state in a fixed order for Adam.
// The slice sets are built once (the underlying storage never moves) so the
// accessors stay off every hot path's allocation profile.
func (n *ConvNet) params() []tensor.Vec {
	if n.paramList == nil {
		n.paramList = []tensor.Vec{n.Embed.Data, n.ConvW.Data, n.GateW.Data, n.ConvB, n.GateB, n.OutW, n.OutB}
		if n.HidW != nil {
			n.paramList = append(n.paramList, n.HidW.Data, n.HidB)
		}
	}
	return n.paramList
}

func (n *ConvNet) grads() []tensor.Vec {
	if n.gradList == nil {
		n.gradList = []tensor.Vec{n.gEmbed.Data, n.gConvW.Data, n.gGateW.Data, n.gConvB, n.gGateB, n.gOutW, n.gOutB}
		if n.HidW != nil {
			n.gradList = append(n.gradList, n.gHidW.Data, n.gHidB)
		}
	}
	return n.gradList
}

func (n *ConvNet) zeroGrads() {
	for _, g := range n.grads() {
		g.Zero()
	}
}

// pad truncates or zero-pads raw bytes to SeqLen. The zero byte doubles as
// the padding symbol, as in MalConv. Short inputs are padded into the
// scratch buffer, so no per-call allocation happens either way.
func (n *ConvNet) pad(b []byte, sc *scratch) []byte {
	L := n.Cfg.SeqLen
	if len(b) >= L {
		return b[:L]
	}
	out := sc.padBuf
	copy(out, b)
	for i := len(b); i < L; i++ {
		out[i] = 0
	}
	return out
}

// cache holds the forward intermediates needed for one backward pass.
type cache struct {
	x      []byte     // padded input
	argmax []int      // per filter: window index of the max activation
	cVal   tensor.Vec // conv pre-activation at argmax
	gVal   tensor.Vec // gate pre-activation at argmax
	pooled tensor.Vec
	hidden tensor.Vec // post-ReLU (nil without hidden layer)
	logit  float64
	score  float64
}

// gather writes the embedded window at byte offset pos into w.
func (n *ConvNet) gather(x []byte, pos int, w tensor.Vec) {
	d := n.Cfg.EmbedDim
	for j := 0; j < n.Cfg.Kernel; j++ {
		row := n.Embed.Row(int(x[pos+j]))
		copy(w[j*d:(j+1)*d], row)
	}
}

// forward runs the full network through the direct (weight-reading) path,
// filling the scratch-owned cache. It is the path training uses, since
// weights move every step.
//
// The convolution dot products accumulate in offset-blocked order — one
// partial sum per kernel offset j over the EmbedDim lanes, folded in j
// order, bias last — exactly the order the lookup-table path adds its
// precomputed per-offset responses. The two paths are therefore
// bit-identical, which keeps the repo-wide parity guarantee intact no
// matter which path a call site takes.
func (n *ConvNet) forward(raw []byte, sc *scratch) *cache {
	cfg := n.Cfg
	c := &sc.c
	c.x = n.pad(raw, sc)
	T := cfg.positions()
	F := cfg.Filters
	K, d := cfg.Kernel, cfg.EmbedDim
	best := sc.best
	best.Fill(math.Inf(-1))
	w := sc.w
	for t := 0; t < T; t++ {
		n.gather(c.x, t*cfg.Stride, w)
		for f := 0; f < F; f++ {
			cw, gw := n.ConvW.Row(f), n.GateW.Row(f)
			var cv, gv float64
			for j := 0; j < K; j++ {
				var pc, pg float64
				for k := j * d; k < (j+1)*d; k++ {
					pc += cw[k] * w[k]
					pg += gw[k] * w[k]
				}
				cv += pc
				gv += pg
			}
			cv += n.ConvB[f]
			gv += n.GateB[f]
			h := cv * tensor.Sigmoid(gv)
			if h > best[f] {
				best[f] = h
				c.argmax[f] = t
				c.cVal[f] = cv
				c.gVal[f] = gv
			}
		}
	}
	copy(c.pooled, best)
	n.head(c)
	return c
}

// head applies the dense layers on top of the pooled activations — shared by
// the direct and table forward paths.
func (n *ConvNet) head(c *cache) {
	if n.HidW != nil {
		n.HidW.MatVecInto(c.pooled, c.hidden)
		for i := range c.hidden {
			c.hidden[i] += n.HidB[i]
			if c.hidden[i] < 0 {
				c.hidden[i] = 0
			}
		}
		c.logit = tensor.Dot(n.OutW, c.hidden) + n.OutB[0]
	} else {
		c.logit = tensor.Dot(n.OutW, c.pooled) + n.OutB[0]
	}
	c.score = tensor.Sigmoid(c.logit)
}

// Predict returns the malware probability for raw bytes, through the
// lookup-table fast path — float64 tables by default, the fixed-point
// variant when a QuantMode is set. Steady state allocates nothing either
// way.
//
//mpass:zeroalloc
func (n *ConvNet) Predict(raw []byte) float64 {
	sc := n.getScratch()
	var score float64
	if qt := n.quantTables(); qt != nil {
		score = n.forwardTableQuant(raw, qt, sc).score
	} else {
		score = n.forwardTable(raw, n.tables(), sc).score
	}
	n.putScratch(sc)
	return score
}

// PredictBatch scores every sample, fanning the (read-only) table-path
// forward passes across the Workers pool. Scores are returned in input order
// and are identical to calling Predict per sample.
func (n *ConvNet) PredictBatch(raws [][]byte) []float64 {
	scores := make([]float64, len(raws))
	if len(raws) == 0 {
		return scores
	}
	if qt := n.quantTables(); qt != nil {
		parallel.ForEach(n.Workers, len(raws), func(i int) {
			sc := n.getScratch()
			scores[i] = n.forwardTableQuant(raws[i], qt, sc).score
			n.putScratch(sc)
		})
		return scores
	}
	tab := n.tables()
	parallel.ForEach(n.Workers, len(raws), func(i int) {
		sc := n.getScratch()
		scores[i] = n.forwardTable(raws[i], tab, sc).score
		n.putScratch(sc)
	})
	return scores
}

// backward runs one example with label y back through the network. With a
// nil inGrad it accumulates the parameter gradients (training); otherwise
// it accumulates only the gradient of the loss with respect to the
// embedded input into inGrad (length SeqLen*EmbedDim) and writes nothing
// but inGrad and sc, so concurrent input-gradient calls on one network
// never share a buffer. sc provides the reusable gather and delta
// buffers; it may be the scratch that produced c or any other scratch of
// this network.
func (n *ConvNet) backward(c *cache, y float64, inGrad tensor.Vec, sc *scratch) {
	cfg := n.Cfg
	train := inGrad == nil
	delta := c.score - y // dLoss/dlogit for BCE + sigmoid

	dPooled := sc.dPooled
	dPooled.Zero()
	if train {
		n.gOutB[0] += delta
	}
	if n.HidW != nil {
		if train {
			tensor.Axpy(delta, c.hidden, n.gOutW)
		}
		dHid := sc.dHid
		for i := range dHid {
			if c.hidden[i] > 0 {
				dHid[i] = delta * n.OutW[i]
			} else {
				dHid[i] = 0
			}
		}
		for i := 0; i < cfg.Hidden; i++ {
			if dHid[i] == 0 {
				continue
			}
			if train {
				tensor.Axpy(dHid[i], c.pooled, n.gHidW.Row(i))
				n.gHidB[i] += dHid[i]
			}
			tensor.Axpy(dHid[i], n.HidW.Row(i), dPooled)
		}
	} else {
		if train {
			tensor.Axpy(delta, c.pooled, n.gOutW)
		}
		tensor.Axpy(delta, n.OutW, dPooled)
	}

	w := sc.w
	d := cfg.EmbedDim
	for f := 0; f < cfg.Filters; f++ {
		if dPooled[f] == 0 {
			continue
		}
		pos := c.argmax[f] * cfg.Stride
		sg := tensor.Sigmoid(c.gVal[f])
		dc := dPooled[f] * sg
		dg := dPooled[f] * c.cVal[f] * sg * (1 - sg)
		cw, gw := n.ConvW.Row(f), n.GateW.Row(f)
		if !train {
			// Gradient w.r.t. the embedded window: dc*ConvW + dg*GateW.
			for k := range cw {
				inGrad[pos*d+k] += dc*cw[k] + dg*gw[k]
			}
			continue
		}
		n.gather(c.x, pos, w)
		tensor.Axpy(dc, w, n.gConvW.Row(f))
		tensor.Axpy(dg, w, n.gGateW.Row(f))
		n.gConvB[f] += dc
		n.gGateB[f] += dg
		// The same window gradient, routed into the embedding table.
		for j := 0; j < cfg.Kernel; j++ {
			erow := n.gEmbed.Row(int(c.x[pos+j]))
			for k := 0; k < d; k++ {
				erow[k] += dc*cw[j*d+k] + dg*gw[j*d+k]
			}
		}
	}
}

// TrainBatch performs one optimizer step on a minibatch and returns the
// mean BCE loss. Labels are 1 for malware, 0 for benign.
//
// The batch is data-parallel: forward passes — the overwhelming share of
// the arithmetic, since backward only revisits each filter's argmax window
// — run concurrently on the Workers pool, while the loss and gradient
// accumulation replay the cached forwards in sample order. Losses and
// updated weights are therefore bit-identical for every worker count.
func (n *ConvNet) TrainBatch(batch [][]byte, labels []float64, opt *Adam) float64 {
	if len(batch) != len(labels) {
		panic("nn: batch/label length mismatch")
	}
	scratches := make([]*scratch, len(batch))
	parallel.ForEach(n.Workers, len(batch), func(i int) {
		sc := n.getScratch()
		n.forward(batch[i], sc)
		scratches[i] = sc
	})
	n.zeroGrads()
	var loss float64
	bw := n.getScratch()
	for i, sc := range scratches {
		loss += tensor.BCE(sc.c.score, labels[i])
		n.backward(&sc.c, labels[i], nil, bw)
		n.putScratch(sc)
	}
	n.putScratch(bw)
	inv := 1 / float64(len(batch))
	for _, g := range n.grads() {
		g.Scale(inv)
	}
	opt.Step(n.params(), n.grads())
	if n.Cfg.NonNeg {
		n.clampNonNeg()
	}
	n.MarkWeightsChanged()
	return loss * inv
}

// clampNonNeg enforces the NonNeg-network constraint on the classification
// head: appended content can then only raise the malware score, never wash
// it out (Fleshman et al.).
func (n *ConvNet) clampNonNeg() {
	for i, v := range n.OutW {
		if v < 0 {
			n.OutW[i] = 0
		}
	}
	if n.HidW != nil {
		for i, v := range n.HidW.Data {
			if v < 0 {
				n.HidW.Data[i] = 0
			}
		}
	}
}

// InputGrad holds the gradient of the loss with respect to the embedded
// input sequence — the continuous object the paper's Eq. 3 optimizes.
type InputGrad struct {
	Grad  tensor.Vec // SeqLen × EmbedDim, row-major by byte position
	Loss  float64
	Score float64

	pool *sync.Pool // recycle target set by the producing network
}

// Release returns the InputGrad's buffers to the producing network for
// reuse. After Release the receiver (including Grad) must not be read. It is
// optional — unreleased results are simply collected — but hot loops that
// release keep steady-state InputGradient allocation free.
func (ig *InputGrad) Release() {
	if ig.pool != nil {
		ig.pool.Put(ig)
	}
}

// InputGradient computes dBCE(f(x), target)/d embed(x). target is the class
// the attacker steers toward: 0 (benign) for evasion.
//
// The forward pass rides the lookup-table fast path, and the returned
// InputGrad comes from a recycle pool (see Release); a loop that releases
// each result allocates nothing in steady state.
//
//mpass:zeroalloc
func (n *ConvNet) InputGradient(raw []byte, target float64) *InputGrad {
	sc := n.getScratch()
	c := n.forwardTable(raw, n.tables(), sc)
	ig := n.getInputGrad()
	ig.Loss = tensor.BCE(c.score, target)
	ig.Score = c.score
	n.backward(c, target, ig.Grad, sc)
	n.putScratch(sc)
	return ig
}

// EmbedRow returns byte b's embedding vector (aliasing internal storage;
// callers must not modify it).
func (n *ConvNet) EmbedRow(b byte) tensor.Vec { return n.Embed.Row(int(b)) }

// EmbedMatrix returns the full 256×EmbedDim byte-embedding table, aliasing
// internal storage. Callers must treat it as read-only; mutating it without
// MarkWeightsChanged leaves the inference tables stale.
func (n *ConvNet) EmbedMatrix() *tensor.Mat { return n.Embed }

// SeqLen returns the model's input window in bytes.
func (n *ConvNet) SeqLen() int { return n.Cfg.SeqLen }

// EmbedDim returns the embedding dimensionality.
func (n *ConvNet) EmbedDim() int { return n.Cfg.EmbedDim }
