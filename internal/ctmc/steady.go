package ctmc

import (
	"fmt"
	"math"

	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// SolverStrategy survives only because bench/ passes SolverAuto by
// name: GTH is the one steady-state solve, whatever the value.
type SolverStrategy int

// SolverAuto is the zero SolverStrategy.
const SolverAuto SolverStrategy = 0

// RateEmitter enumerates the transitions attached to state i as
// (neighbor, rate) pairs with rate > 0.
type RateEmitter func(i int, emit func(j int, rate float64))

// SteadyState solves π Q = 0, Σ π_i = 1 for an ergodic CTMC given by its
// infinitesimal generator matrix Q (Section 5.2): a GTH solve over the
// full band, the dense reference the tests compare against.
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
	return GTH(n, n-1, func(i int, emit func(j int, rate float64)) {
		for j, r := range q.Row(i) {
			emit(j, r)
		}
	})
}

// GTH returns the stationary distribution of an irreducible CTMC on n
// states whose transitions i → j, emitted by out(i) with their rates
// (self-loops ignored), all have |i − j| ≤ b. It is Grassmann–Taksar–
// Heyman state reduction (Oper. Res. 1985): states n−1..1 are censored
// out in turn, then π is back-substituted from π_0. No step subtracts,
// so every π_i is accurate to a few ulps however small it is. Fill-in
// stays in the band: O(n·b²) time and n·(2b+1) cells, which callers
// budget. A state with no rate into the states below it means the
// chain is reducible: a typed invalid_model error, never a vector.
func GTH(n, b int, out RateEmitter) (linalg.Vector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ctmc: empty generator")
	}
	b = max(0, min(b, n-1))
	a := make([]float64, n*(2*b+1)) // the rate i → j is cell (2i+1)·b + j
	for i := 0; i < n; i++ {
		out(i, func(j int, rate float64) {
			if j < max(0, i-b) || j > min(n-1, i+b) {
				panic(fmt.Sprintf("ctmc: GTH transition %d → %d outside band %d of %d states", i, j, b, n))
			}
			if j != i {
				a[(2*i+1)*b+j] += rate
			}
		})
	}
	for k := n - 1; k > 0; k-- {
		lo, rk := max(0, k-b), (2*k+1)*b
		var s float64
		for j := lo; j < k; j++ {
			s += a[rk+j]
		}
		if !(s > 0) {
			return nil, wfmserr.New(wfmserr.CodeInvalidModel, "ctmc",
				"chain is not irreducible: state %d has no rate into states 0..%d", k, k-1)
		}
		for i := lo; i < k; i++ {
			ri := (2*i + 1) * b
			if a[ri+k] /= s; a[ri+k] != 0 {
				for j := lo; j < k; j++ { // j == i feeds the unread diagonal
					a[ri+j] += a[ri+k] * a[rk+j]
				}
			}
		}
	}
	pi := linalg.NewVector(n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		for i := max(0, k-b); i < k; i++ {
			pi[k] += pi[i] * a[(2*i+1)*b+k]
		}
		if pi[k] > 0x1p500 { // rescale before a wide chain overflows
			for i, p := 0, pi[k]; i <= k; i++ {
				pi[i] /= p
			}
		}
	}
	return cleanDistribution(pi)
}

// cleanDistribution clamps round-off negatives and renormalizes: the
// last step of the GTH solve.
func cleanDistribution(pi linalg.Vector) (linalg.Vector, error) {
	for i, p := range pi {
		if p < 0 {
			if p < -1e-9 {
				return nil, wfmserr.New(wfmserr.CodeInvalidModel, "ctmc",
					"steady-state probability π[%d] = %v is negative; chain is likely not ergodic", i, p)
			}
			pi[i] = 0
		}
	}
	out, err := pi.Normalized()
	if err != nil {
		return nil, wfmserr.Wrap(err, wfmserr.CodeInvalidModel, "ctmc", "steady-state distribution is degenerate")
	}
	return out, nil
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
