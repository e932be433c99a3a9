package nn

import (
	"encoding/binary"
	"math"

	"mpass/internal/tensor"
)

// This file is the ConvNet inference engine: a lookup-table fast path used
// whenever weights are frozen (Predict, PredictBatch, InputGradient — and
// through them detect's Score/ScoreBatch/Label), plus the pooled scratch
// buffers that make those calls allocation free in steady state.
//
// The gated convolution at window position t computes, per filter f,
//
//	cv[f] = Σ_j dot(ConvW_f[j·D:(j+1)·D], Embed[x[t·S+j]]) + ConvB[f]
//
// (and the gate counterpart). The inner dot depends only on the kernel
// offset j and the byte value b = x[t·S+j], so for frozen weights every one
// of the K·256 possible (offset, byte) responses is precomputed once into
// respTable. A window then costs K row additions of length F instead of a
// K·D gather copy plus two K·D-multiply dots per filter — the EmbedDim
// factor leaves the hot loop entirely.
//
// Both paths fold partial sums in the same order (per-offset partials in j
// order, bias last; see ConvNet.forward), so table and direct scores are
// bit-identical. fastpath_test.go enforces this.
//
// Storage is cache-tiled: conv and gate responses for one (offset, byte)
// pair are fused into a single row, blocked into feature tiles of
// featureTile lanes so the K row additions of a window walk contiguous
// cache lines instead of striding across two parallel arrays. quant.go
// layers an int32 fixed-point variant over the same geometry, and
// stream.go exposes the whole engine as a chunk-at-a-time scorer.
//
// Most windows are padding: samples average ~3.3 KB against a 16 KiB
// SeqLen, so ~90% of a served pass's windows are all-zero bytes. Both
// table kernels score the first all-zero window of a pass and skip the
// rest, exactly (repeatedZero). The direct forward stays unskipped as the
// parity reference.

// featureTile is the tile width of the fused table layout: 8 float64 lanes
// = one 64-byte cache line. Within a row, tile i carries the conv lanes for
// filters [i·8, i·8+w) immediately followed by their gate lanes, so the two
// responses a window accumulation needs for a filter always share (at most)
// two adjacent lines — for the repo's F = 8 detectors, exactly one row of
// 128 contiguous bytes per (offset, byte) lookup.
const featureTile = 8

// respTable holds the precomputed per-(kernel-offset, byte) filter
// responses for one weight version, in the fused tiled layout: row
// (j*256+b) starts at lane (j*256+b)*2F, and within the row the tile
// starting at filter f0 (width w = min(featureTile, F-f0)) occupies lanes
// [2·f0, 2·f0+w) for conv and [2·f0+w, 2·f0+2w) for gate.
type respTable struct {
	version uint64
	lanes   []float64
}

// tileWidth returns the width of the feature tile starting at filter f0.
func tileWidth(F, f0 int) int {
	if w := F - f0; w < featureTile {
		return w
	}
	return featureTile
}

// laneOffsets returns the lane indices of filter f's conv and gate entries
// within a row of the fused layout (test and build helper; the hot loop
// works on whole tiles instead).
func laneOffsets(F, f int) (conv, gate int) {
	f0 := (f / featureTile) * featureTile
	w := tileWidth(F, f0)
	conv = 2*f0 + (f - f0)
	return conv, conv + w
}

// MarkWeightsChanged invalidates the inference tables. TrainBatch calls it
// after every optimizer step; callers that mutate weights directly (Adam.Step
// on params(), embedding edits, weight surgery) must call it themselves
// before the next inference, or the fast path will keep serving the old
// weights.
func (n *ConvNet) MarkWeightsChanged() { n.weightVersion++ }

// WeightVersion returns the current weight-mutation counter. It only moves
// when TrainBatch or MarkWeightsChanged run, so equal versions imply the
// inference tables are still valid.
func (n *ConvNet) WeightVersion() uint64 { return n.weightVersion }

// tables returns byte-response tables for the current weights, building them
// on first use and after every weight change. Concurrent frozen-weight
// callers are safe: the double-checked build runs once and is published
// through an atomic pointer.
func (n *ConvNet) tables() *respTable {
	if t := n.tab.Load(); t != nil && t.version == n.weightVersion {
		return t
	}
	n.tabMu.Lock()
	defer n.tabMu.Unlock()
	if t := n.tab.Load(); t != nil && t.version == n.weightVersion {
		return t
	}
	t := n.buildTables()
	n.tab.Store(t)
	return t
}

// buildTables precomputes the per-offset byte responses. Cost is
// K·256·F·D multiplies — for the repo's detector sizes, well under the
// arithmetic of a single forward pass — and the accumulation order of each
// entry matches one offset-blocked partial of the direct path exactly.
func (n *ConvNet) buildTables() *respTable {
	cfg := n.Cfg
	K, d, F := cfg.Kernel, cfg.EmbedDim, cfg.Filters
	t := &respTable{
		version: n.weightVersion,
		lanes:   make([]float64, K*256*2*F),
	}
	for j := 0; j < K; j++ {
		base := j * d
		for b := 0; b < 256; b++ {
			row := n.Embed.Row(b)
			lanes := t.lanes[(j*256+b)*2*F : (j*256+b+1)*2*F]
			for f := 0; f < F; f++ {
				cw, gw := n.ConvW.Row(f), n.GateW.Row(f)
				var pc, pg float64
				for k := 0; k < d; k++ {
					pc += cw[base+k] * row[k]
					pg += gw[base+k] * row[k]
				}
				ci, gi := laneOffsets(F, f)
				lanes[ci] = pc
				lanes[gi] = pg
			}
		}
	}
	return t
}

// zeroWindow reports whether every byte of win is zero, eight bytes per
// load.
//
//mpass:zeroalloc
func zeroWindow(win []byte) bool {
	i := 0
	for ; i+8 <= len(win); i += 8 {
		if binary.LittleEndian.Uint64(win[i:]) != 0 {
			return false
		}
	}
	for ; i < len(win); i++ {
		if win[i] != 0 {
			return false
		}
	}
	return true
}

// repeatedZero reports whether win is all-zero and an all-zero window was
// already scored in this pass, recording the first one in *seen. A table
// kernel skips a window it reports, and the skip is exact: a window's
// activations depend only on its bytes, max pooling updates only on a
// strict h > best[f], and best[f] never falls, so a repeat of the scored
// zero window can never update best, argmax, cVal or gVal.
//
//mpass:zeroalloc
func repeatedZero(win []byte, seen *bool) bool {
	if !zeroWindow(win) {
		return false
	}
	if *seen {
		return true
	}
	*seen = true
	return false
}

// forwardTable is the frozen-weight forward pass over precomputed response
// tables. It fills the same backward-ready cache as the direct path and is
// bit-identical to it, repeated all-zero windows skipped (repeatedZero).
//
// Per window the K row offsets are resolved once into a scratch index
// buffer, then each filter's conv and gate sums accumulate in registers
// over the K rows in j order — exactly the direct path's fold order, so
// tiling and the register rewrite change the memory walk, never the
// arithmetic. The tile loop keeps the two lanes a filter needs on the same
// (or an adjacent) cache line; see featureTile.
//
//mpass:zeroalloc
func (n *ConvNet) forwardTable(raw []byte, tab *respTable, sc *scratch) *cache {
	cfg := n.Cfg
	c := &sc.c
	c.x = n.pad(raw, sc)
	T := cfg.positions()
	F := cfg.Filters
	F2 := 2 * F
	K := cfg.Kernel
	best := sc.best
	best.Fill(math.Inf(-1))
	winC, winG := sc.winC, sc.winG
	lanes := tab.lanes
	idx := sc.qIdx
	x := c.x
	seenZero := false
	for t := 0; t < T; t++ {
		pos := t * cfg.Stride
		if repeatedZero(x[pos:pos+K], &seenZero) {
			continue
		}
		for j := 0; j < K; j++ {
			idx[j] = (j*256 + int(x[pos+j])) * F2
		}
		for f0 := 0; f0 < F; f0 += featureTile {
			w := tileWidth(F, f0)
			tile := 2 * f0
			for i := 0; i < w; i++ {
				ci := tile + i
				gi := ci + w
				var cv, gv float64
				for j := 0; j < K; j++ {
					off := idx[j]
					cv += lanes[off+ci]
					gv += lanes[off+gi]
				}
				winC[f0+i] = cv
				winG[f0+i] = gv
			}
		}
		for f := 0; f < F; f++ {
			cv := winC[f] + n.ConvB[f]
			b := best[f]
			// Exact max-pool pruning: σ(gv) ∈ (0, 1], so h = cv·σ(gv) is at
			// most cv when cv > 0 and at most 0 otherwise. When that ceiling
			// cannot beat the running max, the strict h > b update below is
			// provably a no-op and the sigmoid — the dominant epilogue cost —
			// is skipped. best/argmax/cVal/gVal come out bit-identical.
			if cv <= b && b >= 0 {
				continue
			}
			gv := winG[f] + n.GateB[f]
			h := cv * tensor.Sigmoid(gv)
			if h > b {
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

// scratch bundles every buffer one forward (and optionally backward) pass
// needs: the cache of intermediates, the padded-input and gather buffers,
// per-window accumulators for the table path, and the backward delta
// vectors. Instances recycle through ConvNet.scratchPool.
type scratch struct {
	c          cache
	padBuf     []byte
	w          tensor.Vec // Kernel×EmbedDim gather buffer (direct + backward)
	best       tensor.Vec // Filters: running max-pool values
	winC, winG tensor.Vec // Filters: per-window pre-activation accumulators
	dPooled    tensor.Vec // Filters: backward delta
	dHid       tensor.Vec // Hidden: backward delta (nil without hidden layer)

	// Kernel-length row-offset buffer shared by the table forward passes:
	// per window, the K (offset, byte) row starts are resolved once here.
	qIdx []int
	// Per-filter integer prune thresholds for the fixed-point path
	// (quant.go): the largest conv sum that provably cannot beat the
	// running max.
	qTh []int64
}

// getScratch returns a scratch sized for this network, recycled when
// possible. Safe for concurrent use from pool workers.
func (n *ConvNet) getScratch() *scratch {
	cfg := n.Cfg
	if v := n.scratchPool.Get(); v != nil {
		sc := v.(*scratch)
		// A recycled scratch can predate a GobDecode that swapped the
		// architecture; drop it and allocate for the current shape.
		if len(sc.padBuf) == cfg.SeqLen && len(sc.best) == cfg.Filters &&
			len(sc.c.hidden) == cfg.Hidden && len(sc.qIdx) == cfg.Kernel {
			return sc
		}
	}
	F := cfg.Filters
	sc := &scratch{
		padBuf:  make([]byte, cfg.SeqLen),
		w:       tensor.NewVec(cfg.Kernel * cfg.EmbedDim),
		best:    tensor.NewVec(F),
		winC:    tensor.NewVec(F),
		winG:    tensor.NewVec(F),
		dPooled: tensor.NewVec(F),
		qIdx:    make([]int, cfg.Kernel),
		qTh:     make([]int64, F),
		c: cache{
			argmax: make([]int, F),
			cVal:   tensor.NewVec(F),
			gVal:   tensor.NewVec(F),
			pooled: tensor.NewVec(F),
		},
	}
	if cfg.Hidden > 0 {
		sc.c.hidden = tensor.NewVec(cfg.Hidden)
		sc.dHid = tensor.NewVec(cfg.Hidden)
	}
	return sc
}

// putScratch recycles sc. The cached input alias is dropped so the pool
// never pins caller byte slices.
func (n *ConvNet) putScratch(sc *scratch) {
	sc.c.x = nil
	n.scratchPool.Put(sc)
}

// getInputGrad returns a zeroed InputGrad sized for this network, recycled
// from the Release pool when possible.
func (n *ConvNet) getInputGrad() *InputGrad {
	if v := n.igPool.Get(); v != nil {
		ig := v.(*InputGrad)
		if len(ig.Grad) == n.Cfg.SeqLen*n.Cfg.EmbedDim {
			ig.Grad.Zero()
			ig.Loss, ig.Score = 0, 0
			return ig
		}
	}
	return &InputGrad{
		Grad: tensor.NewVec(n.Cfg.SeqLen * n.Cfg.EmbedDim),
		pool: &n.igPool,
	}
}
