package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Errorf("At(0,1) = %v, want 7", got)
	}
}

func TestMatrixFromRows(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows did not panic")
		}
	}()
	MatrixFromRows([][]float64{{1}, {2, 3}})
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(3)
	v := Vector{1, 2, 3}
	got := id.MulVec(v)
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("I*v[%d] = %v, want %v", i, got[i], v[i])
		}
	}
}

func TestMatrixMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixVecMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	v := Vector{5, 6}
	got := a.VecMul(v) // [5*1+6*3, 5*2+6*4] = [23, 34]
	if got[0] != 23 || got[1] != 34 {
		t.Errorf("v*A = %v, want [23 34]", got)
	}
}

func TestMatrixSubScale(t *testing.T) {
	a := MatrixFromRows([][]float64{{3, 4}})
	b := MatrixFromRows([][]float64{{1, 1}})
	c := a.Sub(b).Scale(2)
	if c.At(0, 0) != 4 || c.At(0, 1) != 6 {
		t.Errorf("(a-b)*2 = %v", c)
	}
}

func TestMatrixRowSums(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, -3}})
	s := a.RowSums()
	if s[0] != 3 || s[1] != 0 {
		t.Errorf("RowSums = %v", s)
	}
}

func TestMatrixRowAliases(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Row(1)[0] = 9
	if a.At(1, 0) != 9 {
		t.Error("Row does not alias storage")
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	a := NewMatrix(1, 1)
	for _, f := range []func(){
		func() { a.At(1, 0) },
		func() { a.Set(0, -1, 0) },
		func() { a.Row(2) },
		func() { a.MulVec(Vector{1, 2}) },
		func() { a.Mul(NewMatrix(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestQuickMulVecMatchesMul(t *testing.T) {
	// (A*B)*v must equal A*(B*v).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n)
		b := randomMatrix(rng, n)
		v := NewVector(n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		left := a.Mul(b).MulVec(v)
		right := a.MulVec(b.MulVec(v))
		for i := range left {
			if !almostEqual(left[i], right[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxAbs(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, -7}, {3, 2}})
	if got := a.MaxAbs(); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
}

func TestMatrixString(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	want := "[1 2]\n[3 4]"
	if got := a.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if math.IsNaN(a.MaxAbs()) {
		t.Error("unexpected NaN")
	}
}
