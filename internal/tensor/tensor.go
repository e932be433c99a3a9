// Package tensor provides the small dense linear-algebra kernels used by the
// neural detectors (internal/nn) and the boosted trees (internal/gbdt).
// It is deliberately minimal: flat float64 slices, row-major matrices, and
// the handful of BLAS-1/2 operations the models need, written as simple
// loops the compiler can bounds-check-eliminate.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec { return append(Vec(nil), v...) }

// Zero sets every element to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element to x.
func (v Vec) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Equal reports exact element-wise equality — the bit-identity check the
// serial-vs-parallel parity tests rest on.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range v {
		if x != w[i] {
			return false
		}
	}
	return true
}

// Dot returns the inner product of v and w; the slices must match in length.
func Dot(v, w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Add computes v += w element-wise in place. It is the row-accumulation
// kernel of the tiled inference fast path (internal/nn), so it must stay
// allocation free and fold strictly in index order — bit-parity between the
// table and direct forward paths depends on that order.
//
//mpass:zeroalloc
func (v Vec) Add(w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(v), len(w)))
	}
	for i, x := range w {
		v[i] += x
	}
}

// Axpy computes w += a*v in place.
func Axpy(a float64, v, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(v), len(w)))
	}
	for i, x := range v {
		w[i] += a * x
	}
}

// Scale multiplies v by a in place.
func (v Vec) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       Vec
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// MatVec computes m·v.
func (m *Mat) MatVec(v Vec) Vec {
	out := NewVec(m.Rows)
	m.MatVecInto(v, out)
	return out
}

// MatVecInto computes m·v into out (length Rows), allocating nothing. Each
// out[i] is the same Dot the allocating MatVec produces, so results are
// bit-identical between the two.
//
//mpass:zeroalloc
func (m *Mat) MatVecInto(v, out Vec) {
	if len(v) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVecInto %dx%d by %d into %d", m.Rows, m.Cols, len(v), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), v)
	}
}

// XavierInit fills the matrix with Uniform(-lim, lim), lim = sqrt(6/(in+out)),
// the standard Glorot initialization for tanh/sigmoid-adjacent layers.
func (m *Mat) XavierInit(rng *rand.Rand) {
	lim := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * lim
	}
}

// HeInit fills the matrix with N(0, sqrt(2/cols)) for ReLU layers.
func (m *Mat) HeInit(rng *rand.Rand) {
	sd := math.Sqrt(2.0 / float64(m.Cols))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * sd
	}
}

// Sigmoid returns 1/(1+e^-x) with clamping that avoids overflow.
func Sigmoid(x float64) float64 {
	switch {
	case x > 40:
		return 1
	case x < -40:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// BCE returns the binary cross-entropy of probability p against label y,
// clamped away from log(0).
func BCE(p, y float64) float64 {
	const eps = 1e-9
	if p < eps {
		p = eps
	} else if p > 1-eps {
		p = 1 - eps
	}
	return -(y*math.Log(p) + (1-y)*math.Log(1-p))
}
