package linalg

import (
	"fmt"
	"math"
)

// OnesRow presents the normalized steady-state system matrix: a sparse
// matrix A (in CTMC use, the transposed generator Qᵀ) with its last row
// implicitly replaced by a row of ones, the standard trick that turns
// the singular balance equations π Q = 0 plus Σ π = 1 into a regular
// system A x = e_{n-1}. The underlying CSR is not modified, so one
// matrix serves both the normalized solve and raw products.
type OnesRow struct {
	A *Sparse
}

// N returns the system dimension.
func (m OnesRow) N() int { return m.A.n }

// Apply computes dst = A v with the last row of A read as all ones.
func (m OnesRow) Apply(dst, v Vector) {
	a := m.A
	n := a.n
	if len(v) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: ones-row apply of size %d with dst length %d, v length %d", n, len(dst), len(v)))
	}
	for i := 0; i < n-1; i++ {
		var sum float64
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			sum += a.val[k] * v[a.colIdx[k]]
		}
		dst[i] = sum
	}
	var total float64
	for _, x := range v {
		total += x
	}
	dst[n-1] = total
}

// OnesRowGaussSeidel runs the Gauss-Seidel iteration on the normalized
// steady-state system A x = e_{n-1} with A's last row read as ones (see
// OnesRow), sweeping rows in ascending order exactly like the dense
// path so the two agree on which systems converge. The loops live here
// rather than over the Row callback so a multi-million-state sweep
// stays a tight slice scan.
func OnesRowGaussSeidel(a *Sparse, x0 Vector, opts GaussSeidelOptions) (Vector, int, error) {
	n := a.n
	if n == 0 {
		return nil, 0, fmt.Errorf("linalg: ones-row gauss-seidel on empty matrix")
	}
	opts = opts.withDefaults()
	x := NewVector(n)
	if x0 != nil {
		if len(x0) != n {
			return nil, 0, fmt.Errorf("linalg: ones-row gauss-seidel start vector length %d does not match matrix size %d", len(x0), n)
		}
		copy(x, x0)
	}
	for i := 0; i < n-1; i++ {
		if a.diag[i] == 0 {
			return nil, 0, fmt.Errorf("linalg: ones-row gauss-seidel requires nonzero diagonal, a[%d][%d]=0: %w", i, i, ErrSingular)
		}
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		var delta float64
		for i := 0; i < n-1; i++ {
			var sum float64 // rhs is zero for all rows but the last
			for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
				if j := a.colIdx[k]; j != i {
					sum -= a.val[k] * x[j]
				}
			}
			next := sum / a.diag[i]
			if d := math.Abs(next - x[i]); d > delta {
				delta = d
			}
			x[i] = next
		}
		var total float64
		for j := 0; j < n-1; j++ {
			total += x[j]
		}
		next := 1 - total
		if d := math.Abs(next - x[n-1]); d > delta {
			delta = d
		}
		x[n-1] = next
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return nil, iter, fmt.Errorf("linalg: ones-row gauss-seidel diverged at sweep %d: %w", iter, ErrNoConvergence)
		}
		if delta <= opts.Tol {
			return x, iter, nil
		}
	}
	return x, opts.MaxIter, ErrNoConvergence
}
