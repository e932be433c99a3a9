package nn

import (
	"fmt"
	"math"

	"mpass/internal/tensor"
)

// This file is the fixed-point variant of the inference fast path: the
// fused tiled respTable re-expressed in int32 lanes with a per-table scale,
// so window accumulation becomes integer adds over half-width rows and the
// float multiply only happens once per window at dequantization.
//
// Quantization scheme. Conv and gate lanes get independent symmetric
// scales chosen from the observed dynamic range of the float table:
//
//	scale = maxAbs / qmax,  q = clamp(round(v/scale), ±qmax)
//
// with qmax = 2^31-1. A window sum of K quantized entries then carries at
// most K·scale/2 absolute pre-activation error, and integer accumulation
// is exact: K·qmax fits int64, so no overflow and no rounding beyond the
// initial per-entry half-ulp. For the repo's detector shapes the bound
// works out to ~1e-8 pre-activation — the ≤ 1e-6 score bound the
// detect-level gate certifies on the full eval corpus.
//
// Quantized tables are runtime-only artifacts: they are rebuilt lazily
// from the float table whenever the weight version changes, and
// are never persisted (persist.go drops them on decode), so a loaded
// suite can never serve stale fixed-point state.

// QuantMode selects the numeric format of the inference tables served by
// Predict, PredictBatch, and streams.
type QuantMode int32

const (
	// QuantOff serves the float64 table path (bit-identical to the direct
	// forward pass).
	QuantOff QuantMode = iota
	// QuantInt32 serves int32 lanes with int64 accumulation — the
	// certified ≤ 1e-6 absolute score deviation mode.
	QuantInt32
)

// String returns the flag spelling of m.
func (m QuantMode) String() string {
	switch m {
	case QuantOff:
		return "off"
	case QuantInt32:
		return "int32"
	}
	return fmt.Sprintf("QuantMode(%d)", int32(m))
}

// ParseQuantMode parses the -quant flag spellings.
func ParseQuantMode(s string) (QuantMode, error) {
	switch s {
	case "off", "":
		return QuantOff, nil
	case "int32":
		return QuantInt32, nil
	}
	return QuantOff, fmt.Errorf("nn: unknown quant mode %q (want off|int32)", s)
}

// quantTable is the fixed-point image of one respTable: identical fused
// tile geometry (see fastpath.go), integer lanes, and the two dequant
// scales.
type quantTable struct {
	version uint64
	lanes32 []int32

	convScale, gateScale float64
}

// SetQuantMode selects the table format served by subsequent inference
// calls. The fixed-point tables are (re)built lazily on first use; passing
// QuantOff restores the bit-exact float64 path. Safe to call concurrently
// with frozen-weight scoring.
func (n *ConvNet) SetQuantMode(m QuantMode) { n.quantMode.Store(int32(m)) }

// QuantMode returns the currently selected table format.
func (n *ConvNet) QuantMode() QuantMode { return QuantMode(n.quantMode.Load()) }

// quantTables returns the fixed-point tables for the current weights, or
// nil when quantization is off. Same double-checked lazy build
// as tables(), under its own mutex (the build itself calls tables()).
func (n *ConvNet) quantTables() *quantTable {
	mode := QuantMode(n.quantMode.Load())
	if mode == QuantOff {
		return nil
	}
	if qt := n.qtab.Load(); qt != nil && qt.version == n.weightVersion {
		return qt
	}
	n.qtabMu.Lock()
	defer n.qtabMu.Unlock()
	if qt := n.qtab.Load(); qt != nil && qt.version == n.weightVersion {
		return qt
	}
	qt := n.buildQuantTable(mode)
	n.qtab.Store(qt)
	return qt
}

// quantScale returns the symmetric scale mapping [-maxAbs, maxAbs] onto
// [-qmax, qmax]. An all-zero table gets scale 1 so dequantization stays
// well-defined.
func quantScale(maxAbs, qmax float64) float64 {
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / qmax
}

// quantLane rounds v to the nearest step of scale, clamped to ±qmax.
func quantLane(v, scale, qmax float64) int64 {
	q := math.Round(v / scale)
	if q > qmax {
		q = qmax
	} else if q < -qmax {
		q = -qmax
	}
	return int64(q)
}

// buildQuantTable quantizes the current float table. Cost is one linear
// pass for the range scan and one for the rounding — far below the float
// table build itself, and amortized the same way (once per weight version).
func (n *ConvNet) buildQuantTable(mode QuantMode) *quantTable {
	if mode != QuantInt32 {
		panic(fmt.Sprintf("nn: buildQuantTable with mode %v", mode))
	}
	tab := n.tables()
	F := n.Cfg.Filters
	F2 := 2 * F
	rows := len(tab.lanes) / F2

	var maxC, maxG float64
	for r := 0; r < rows; r++ {
		lanes := tab.lanes[r*F2 : (r+1)*F2]
		for f := 0; f < F; f++ {
			ci, gi := laneOffsets(F, f)
			if a := math.Abs(lanes[ci]); a > maxC {
				maxC = a
			}
			if a := math.Abs(lanes[gi]); a > maxG {
				maxG = a
			}
		}
	}

	const qmax = math.MaxInt32
	qt := &quantTable{
		version:   tab.version,
		convScale: quantScale(maxC, qmax),
		gateScale: quantScale(maxG, qmax),
		lanes32:   make([]int32, len(tab.lanes)),
	}
	for r := 0; r < rows; r++ {
		base := r * F2
		for f := 0; f < F; f++ {
			ci, gi := laneOffsets(F, f)
			qt.lanes32[base+ci] = int32(quantLane(tab.lanes[base+ci], qt.convScale, qmax))
			qt.lanes32[base+gi] = int32(quantLane(tab.lanes[base+gi], qt.gateScale, qmax))
		}
	}
	return qt
}

// forwardTableQuant is the fixed-point forward pass. It mirrors
// forwardTable's structure — per-window row-offset resolution, register
// accumulation over the K rows — but the accumulators are int64 (exact, no
// overflow for any K the config validator admits), and max-pool pruning
// happens in the
// integer domain: a per-filter threshold (quantThresh) lets pruned lanes
// skip dequantization, the bias add, the sigmoid, AND the entire gate-lane
// sum. Pruning, like the repeated-zero-window skip it shares with
// forwardTable, is conservative by construction, so the pooled result is
// identical to the unpruned fixed-point forward; the only deviation from
// the float path is the bounded table rounding.
//
//mpass:zeroalloc
func (n *ConvNet) forwardTableQuant(raw []byte, qt *quantTable, sc *scratch) *cache {
	cfg := n.Cfg
	c := &sc.c
	c.x = n.pad(raw, sc)
	T := cfg.positions()
	F := cfg.Filters
	F2 := 2 * F
	K := cfg.Kernel
	best := sc.best
	best.Fill(math.Inf(-1))
	th := sc.qTh
	for i := range th {
		th[i] = math.MinInt64
	}
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
		n.quantWindow32(qt, sc, t)
	}
	copy(c.pooled, best)
	n.head(c)
	return c
}

// quantThresh returns the largest integer conv sum that provably cannot
// beat the running max b: any cv with cv ≤ thresh has cv·scale + bias ≤ b
// (the extra -1 step of slack dominates every float rounding involved, so
// the prune never skips a true update). While b < 0 no integer ceiling is
// sound — a negative activation can still win — so pruning stays disabled.
func quantThresh(b, bias, scale float64) int64 {
	if b < 0 {
		return math.MinInt64
	}
	x := math.Floor((b - bias) / scale)
	if x < -4.6e18 {
		return math.MinInt64
	}
	if x > 4.6e18 {
		return math.MaxInt64
	}
	return int64(x) - 1
}

// quantPoolUpdate runs the exact float epilogue for one candidate window
// lane and refreshes the filter's integer prune threshold on update.
//
//mpass:zeroalloc
func (n *ConvNet) quantPoolUpdate(sc *scratch, t, f int, cvf, gvf, cs float64) {
	h := cvf * tensor.Sigmoid(gvf)
	if h > sc.best[f] {
		sc.best[f] = h
		sc.c.argmax[f] = t
		sc.c.cVal[f] = cvf
		sc.c.gVal[f] = gvf
		sc.qTh[f] = quantThresh(h, n.ConvB[f], cs)
	}
}

// Unlike the float path, integer window sums are exact under every fold
// order, so the window kernels below are free to unroll the kernel loop —
// the serving detectors all use Kernel = 8, and the unrolled form keeps
// the eight row offsets in registers and drops the per-lane loop overhead
// that otherwise dominates this cache-resident workload.

// quantWindow32 scores one window position against the int32 tables.
//
//mpass:zeroalloc
func (n *ConvNet) quantWindow32(qt *quantTable, sc *scratch, t int) {
	lanes := qt.lanes32
	idx := sc.qIdx
	th := sc.qTh
	F := n.Cfg.Filters
	cs, gs := qt.convScale, qt.gateScale
	if len(idx) == 8 {
		o0, o1, o2, o3 := idx[0], idx[1], idx[2], idx[3]
		o4, o5, o6, o7 := idx[4], idx[5], idx[6], idx[7]
		for f0 := 0; f0 < F; f0 += featureTile {
			w := tileWidth(F, f0)
			tile := 2 * f0
			for i := 0; i < w; i++ {
				ci := tile + i
				cv := int64(lanes[o0+ci]) + int64(lanes[o1+ci]) + int64(lanes[o2+ci]) + int64(lanes[o3+ci]) +
					int64(lanes[o4+ci]) + int64(lanes[o5+ci]) + int64(lanes[o6+ci]) + int64(lanes[o7+ci])
				f := f0 + i
				if cv <= th[f] {
					continue
				}
				gi := ci + w
				gv := int64(lanes[o0+gi]) + int64(lanes[o1+gi]) + int64(lanes[o2+gi]) + int64(lanes[o3+gi]) +
					int64(lanes[o4+gi]) + int64(lanes[o5+gi]) + int64(lanes[o6+gi]) + int64(lanes[o7+gi])
				n.quantPoolUpdate(sc, t, f, float64(cv)*cs+n.ConvB[f], float64(gv)*gs+n.GateB[f], cs)
			}
		}
		return
	}
	for f0 := 0; f0 < F; f0 += featureTile {
		w := tileWidth(F, f0)
		tile := 2 * f0
		for i := 0; i < w; i++ {
			ci := tile + i
			var cv int64
			for _, off := range idx {
				cv += int64(lanes[off+ci])
			}
			f := f0 + i
			if cv <= th[f] {
				continue
			}
			gi := ci + w
			var gv int64
			for _, off := range idx {
				gv += int64(lanes[off+gi])
			}
			n.quantPoolUpdate(sc, t, f, float64(cv)*cs+n.ConvB[f], float64(gv)*gs+n.GateB[f], cs)
		}
	}
}
