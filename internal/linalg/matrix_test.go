package linalg

import (
	"math/rand"
	"testing"
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
	got := mulVec(id, v)
	for i := range v {
		if got[i] != v[i] {
			t.Errorf("I*v[%d] = %v, want %v", i, got[i], v[i])
		}
	}
}

func TestMatrixVecMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	v := Vector{5, 6}
	got := vecMul(v, a) // [5*1+6*3, 5*2+6*4] = [23, 34]
	if got[0] != 23 || got[1] != 34 {
		t.Errorf("v*A = %v, want [23 34]", got)
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

// mulVec returns m*v, the dense reference for the solvers' tests.
func mulVec(m *Matrix, v Vector) Vector {
	out := NewVector(m.Rows())
	for i := range out {
		for j, x := range m.Row(i) {
			out[i] += x * v[j]
		}
	}
	return out
}

// vecMul returns v*m (row vector times matrix).
func vecMul(v Vector, m *Matrix) Vector {
	out := NewVector(m.Cols())
	for i, vi := range v {
		for j, x := range m.Row(i) {
			out[j] += vi * x
		}
	}
	return out
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

func TestMatrixString(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	want := "[1 2]\n[3 4]"
	if got := a.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
