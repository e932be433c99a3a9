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
// cache lines instead of striding across two parallel arrays. stream.go
// exposes the whole engine as a chunk-at-a-time scorer.
//
// Most windows are padding: samples average ~3.3 KB against a 16 KiB
// SeqLen, so ~80% of a served pass's windows lie wholly past the sample's
// end. The table kernel stops at the first of them (visited) and skips
// repeated all-zero windows inside the sample (repeatedZero), both
// exactly. The direct forward stays unskipped as the parity reference.

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

// QuantMode is deprecated and ignored: the table kernel has one numeric
// format, float64. The type and QuantOff remain only so that callers naming
// them keep compiling.
type QuantMode int32

// QuantOff is the float64 table path, the only one there is.
const QuantOff QuantMode = 0

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
// already scored in this pass, recording the first one in *seen. The table
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
// bit-identical to it.
//
// It visits only the windows that touch the sample plus the first
// all-padding window (visited), reading them from a prefix of the padded
// input that is zeroed only as far as the last byte visited. Every later
// window is all padding and so repeats that scored zero window, as
// repeated all-zero windows inside the sample do (repeatedZero); skipping
// either is exact.
//
// Per window the K row offsets are resolved once into a scratch index
// buffer, then each feature tile's conv and gate sums accumulate in
// registers over the K rows in j order, starting from 0 (sumTile8,
// sumTile4) — exactly the direct path's fold order, so tiling and the
// register rewrite change the memory walk, never the arithmetic. The tile
// loop keeps the two lanes a filter needs on the same (or an adjacent)
// cache line; see featureTile.
//
//mpass:zeroalloc
func (n *ConvNet) forwardTable(raw []byte, tab *respTable, sc *scratch) *cache {
	cfg := n.Cfg
	c := &sc.c
	F := cfg.Filters
	F2 := 2 * F
	K, S := cfg.Kernel, cfg.Stride
	T := visited(cfg, len(raw))
	x := n.padTo(raw, (T-1)*S+K, sc)
	c.x = x
	best := sc.best
	best.Fill(math.Inf(-1))
	winC, winG := sc.winC, sc.winG
	lanes := tab.lanes
	idx := sc.idx
	seenZero := false
	for t := 0; t < T; t++ {
		win := x[t*S : t*S+K]
		if repeatedZero(win, &seenZero) {
			continue
		}
		for j, b := range win {
			idx[j] = (j*256 + int(b)) * F2
		}
		for f0 := 0; f0 < F; f0 += featureTile {
			switch w := tileWidth(F, f0); w {
			case 8:
				sumTile8(lanes, idx, 2*f0, winC[f0:f0+8], winG[f0:f0+8])
			case 4:
				sumTile4(lanes, idx, 2*f0, winC[f0:f0+4], winG[f0:f0+4])
			default:
				sumTile(lanes, idx, 2*f0, winC[f0:f0+w], winG[f0:f0+w])
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

// visited returns how many leading windows forwardTable scores for an input
// of n bytes: those that start inside the (truncated) sample, plus the first
// window that starts past its end — all padding — capped at positions().
func visited(cfg ConvConfig, n int) int {
	n = min(n, cfg.SeqLen)
	return min(cfg.positions(), (n+cfg.Stride-1)/cfg.Stride+1)
}

// padTo returns the first need bytes of raw zero-padded to SeqLen, copying
// into the scratch buffer only when raw is shorter than need, and zeroing
// only up to need.
//
//mpass:zeroalloc
func (n *ConvNet) padTo(raw []byte, need int, sc *scratch) []byte {
	if len(raw) >= need {
		return raw[:need]
	}
	x := sc.padBuf[:need]
	copy(x, raw)
	clear(x[len(raw):])
	return x
}

// sumTile8 sums one 8-lane feature tile, starting at lane tile of each row,
// over the window's rows in j order: conv into winC, gate into winG. Each
// half is its own pass so its eight sums fit in registers, and each row
// costs one bounds check per pass.
//
//mpass:zeroalloc
func sumTile8(lanes []float64, idx []int, tile int, winC, winG []float64) {
	sum8(lanes, idx, tile, winC)
	sum8(lanes, idx, tile+8, winG)
}

// sum8 sums the eight lanes starting at lane at of each row, in j order.
//
//mpass:zeroalloc
func sum8(lanes []float64, idx []int, at int, out []float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for _, off := range idx {
		r := lanes[off+at : off+at+8 : off+at+8]
		s0 += r[0]
		s1 += r[1]
		s2 += r[2]
		s3 += r[3]
		s4 += r[4]
		s5 += r[5]
		s6 += r[6]
		s7 += r[7]
	}
	out = out[:8]
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
	out[4], out[5], out[6], out[7] = s4, s5, s6, s7
}

// sumTile4 is sumTile8 for a 4-lane remainder tile, such as MalGCG's
// filters 8–11 (F = 12). Its eight sums fit in registers in one pass.
//
//mpass:zeroalloc
func sumTile4(lanes []float64, idx []int, tile int, winC, winG []float64) {
	var c0, c1, c2, c3, g0, g1, g2, g3 float64
	for _, off := range idx {
		c := lanes[off+tile : off+tile+4 : off+tile+4]
		g := lanes[off+tile+4 : off+tile+8 : off+tile+8]
		c0 += c[0]
		c1 += c[1]
		c2 += c[2]
		c3 += c[3]
		g0 += g[0]
		g1 += g[1]
		g2 += g[2]
		g3 += g[3]
	}
	winC = winC[:4]
	winC[0], winC[1], winC[2], winC[3] = c0, c1, c2, c3
	winG = winG[:4]
	winG[0], winG[1], winG[2], winG[3] = g0, g1, g2, g3
}

// sumTile is the same sum for a tile of any width w = len(winC), lane by
// lane.
//
//mpass:zeroalloc
func sumTile(lanes []float64, idx []int, tile int, winC, winG []float64) {
	w := len(winC)
	for i := range winC {
		ci := tile + i
		gi := ci + w
		var cv, gv float64
		for _, off := range idx {
			cv += lanes[off+ci]
			gv += lanes[off+gi]
		}
		winC[i] = cv
		winG[i] = gv
	}
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

	// Kernel-length row-offset buffer of the table forward pass: per
	// window, the K (offset, byte) row starts are resolved once here.
	idx []int
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
			len(sc.c.hidden) == cfg.Hidden && len(sc.idx) == cfg.Kernel {
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
		idx:     make([]int, cfg.Kernel),
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
