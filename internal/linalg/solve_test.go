package linalg

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnownSystem(t *testing.T) {
	a := MatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := Vector{8, -11, -3}
	lu, err := FactorLU(a)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	x, err := lu.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := Vector{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUDet(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	lu, err := FactorLU(a)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if got := lu.Det(); !almostEqual(got, -2, 1e-12) {
		t.Errorf("Det = %v, want -2", got)
	}
}

func TestLUSingular(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestLUSolveBadRHS(t *testing.T) {
	lu, err := FactorLU(Identity(2))
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	if _, err := lu.Solve(Vector{1}); err == nil {
		t.Error("bad rhs length accepted")
	}
}

func TestLUPivotingHandlesZeroLeadingElement(t *testing.T) {
	a := MatrixFromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	lu, err := FactorLU(a)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	x, err := lu.Solve(Vector{3, 5})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(x[0], 5, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [5 3]", x)
	}
}

func TestQuickLUSolvesRandomSystems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n)
		// Nudge towards invertibility; random Gaussian matrices are
		// almost surely invertible anyway.
		for i := 0; i < n; i++ {
			a.Add(i, i, 2)
		}
		want := NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := mulVec(a, want)
		lu, err := FactorLU(a)
		if err != nil {
			return true // singular draw, skip
		}
		x, err := lu.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(x[i], want[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
