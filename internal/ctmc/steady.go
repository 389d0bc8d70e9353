package ctmc

import (
	"fmt"
	"math"

	"performa/internal/linalg"
)

// SteadyState solves π Q = 0, Σ π_i = 1 for an ergodic CTMC given by its
// infinitesimal generator matrix Q (Section 5.2). The normalization
// constraint replaces the (redundant) last balance equation, turning the
// singular system into a regular one that the standard solvers handle.
func SteadyState(q *linalg.Matrix) (linalg.Vector, error) {
	n := q.Rows()
	if q.Cols() != n {
		return nil, fmt.Errorf("ctmc: generator must be square, got %dx%d", n, q.Cols())
	}
	if n == 0 {
		return nil, fmt.Errorf("ctmc: empty generator")
	}
	if err := ValidateGenerator(q); err != nil {
		return nil, err
	}
	// π Q = 0  ⇔  Qᵀ πᵀ = 0.
	return steadyDense(q.Transpose())
}

// ValidateGenerator checks that q is a proper infinitesimal generator:
// nonnegative off-diagonal rates and rows summing to zero.
func ValidateGenerator(q *linalg.Matrix) error {
	n := q.Rows()
	for i := 0; i < n; i++ {
		row := q.Row(i)
		var sum float64
		var scale float64
		for j, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("ctmc: generator entry q[%d][%d] = %v", i, j, x)
			}
			if j != i && x < 0 {
				return fmt.Errorf("ctmc: negative off-diagonal rate q[%d][%d] = %v", i, j, x)
			}
			sum += x
			if a := math.Abs(x); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
		if math.Abs(sum) > 1e-9*scale {
			return fmt.Errorf("ctmc: generator row %d sums to %v, want 0", i, sum)
		}
	}
	return nil
}
