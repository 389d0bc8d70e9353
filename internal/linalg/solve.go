package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is reported when a direct solve encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting of a square matrix,
// suitable for repeated solves against different right-hand sides.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// FactorLU computes the LU factorization of a with partial pivoting.
// The input matrix is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("linalg: LU needs a square matrix, got %dx%d", n, a.Cols())
	}
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		// Choose the pivot row with the largest absolute value in
		// this column at or below the diagonal.
		p := col
		mx := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > mx {
				mx = a
				p = r
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("linalg: zero pivot in column %d: %w", col, ErrSingular)
		}
		if p != col {
			rp, rc := lu.Row(p), lu.Row(col)
			for j := range rp {
				rp[j], rc[j] = rc[j], rp[j]
			}
			piv[p], piv[col] = piv[col], piv[p]
			sign = -sign
		}
		pivot := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / pivot
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rr := lu.Row(r)
			rc := lu.Row(col)
			for j := col + 1; j < n; j++ {
				rr[j] -= f * rc[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A x = b using the factorization and returns x.
func (f *LU) Solve(b Vector) (Vector, error) {
	return f.SolveInto(NewVector(f.lu.Rows()), b)
}

// SolveInto solves A x = b into the preallocated dst (which must have
// length n and may not alias b) and returns it, so callers solving
// against many right-hand sides reuse one buffer instead of allocating
// per solve.
func (f *LU) SolveInto(dst, b Vector) (Vector, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: LU solve rhs length %d does not match matrix size %d", len(b), n)
	}
	if len(dst) != n {
		return nil, fmt.Errorf("linalg: LU solve destination length %d does not match matrix size %d", len(dst), n)
	}
	x := dst
	// Apply the row permutation to b, then forward-substitute L y = Pb.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back-substitute U x = y.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows(); i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
