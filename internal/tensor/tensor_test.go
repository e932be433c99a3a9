package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAndAxpy(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := Dot(v, w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	Axpy(2, v, w)
	want := Vec{6, 9, 12}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("Axpy[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot on mismatched lengths did not panic")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestMatVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, Vec{1, 2, 3, 4, 5, 6})
	got := m.MatVec(Vec{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MatVec = %v, want [6 15]", got)
	}
}

func TestMatRowAliasesStorage(t *testing.T) {
	m := NewMat(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row does not alias storage")
	}
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 {
		t.Error("Set/At mismatch")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMat(1, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 2)
	if m.At(0, 0) != 1 {
		t.Error("Mat.Clone shares storage")
	}
	v := Vec{1, 2}
	cv := v.Clone()
	cv[0] = 7
	if v[0] != 1 {
		t.Error("Vec.Clone shares storage")
	}
}

func TestSigmoidProperties(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Errorf("Sigmoid(0) = %v", Sigmoid(0))
	}
	if Sigmoid(100) != 1 || Sigmoid(-100) != 0 {
		t.Error("saturation clamps missing")
	}
	prop := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := Sigmoid(x)
		return s >= 0 && s <= 1 && math.Abs(s+Sigmoid(-x)-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestBCE(t *testing.T) {
	if got := BCE(0.5, 1); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("BCE(0.5,1) = %v, want ln 2", got)
	}
	if got := BCE(0, 1); math.IsInf(got, 1) || math.IsNaN(got) {
		t.Errorf("BCE(0,1) = %v, want finite clamp", got)
	}
	if BCE(0.9, 1) >= BCE(0.1, 1) {
		t.Error("BCE not monotone in confidence")
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMat(16, 16)
	m.XavierInit(rng)
	lim := math.Sqrt(6.0 / 32)
	for _, v := range m.Data {
		if v < -lim || v > lim {
			t.Fatalf("Xavier value %v outside ±%v", v, lim)
		}
	}
	h := NewMat(16, 16)
	h.HeInit(rng)
	var nonzero int
	for _, v := range h.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("HeInit left matrix zero")
	}
}

func TestZeroAndScale(t *testing.T) {
	v := Vec{3, 4}
	v.Scale(2)
	if v[0] != 6 || v[1] != 8 {
		t.Errorf("Scale = %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Errorf("Zero = %v", v)
	}
}

func TestFillAndEqual(t *testing.T) {
	v := NewVec(4)
	v.Fill(2.5)
	for _, x := range v {
		if x != 2.5 {
			t.Fatalf("Fill = %v", v)
		}
	}
	if !v.Equal(Vec{2.5, 2.5, 2.5, 2.5}) {
		t.Error("Equal false on identical vectors")
	}
	if v.Equal(Vec{2.5, 2.5}) {
		t.Error("Equal true across lengths")
	}
	if v.Equal(Vec{2.5, 2.5, 2.5, 2.6}) {
		t.Error("Equal true on differing vectors")
	}
}
