package ctmc

import (
	"errors"
	"fmt"
	"math"

	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// SolverStrategy selects how steady-state systems are solved. The zero
// value (SolverAuto) picks the dense direct path for small systems —
// keeping exact agreement with the historical solver where it is cheap —
// and the sparse Gauss-Seidel iteration beyond that.
type SolverStrategy int

const (
	// SolverAuto picks dense up to denseAutoCutover states and sparse
	// Gauss-Seidel above; a miss is a typed no_convergence error.
	SolverAuto SolverStrategy = iota
	// SolverDense forces the dense transpose-and-eliminate path
	// (subject to the MaxMatrixDim budget): the reference crossval and
	// wfmscheck -solver-diff compare against.
	SolverDense
	// SolverGaussSeidel forces the sparse Gauss-Seidel iteration, the
	// only path beyond MaxMatrixDim.
	SolverGaussSeidel
)

// denseAutoCutover is the dimension up to which SolverAuto stays on the
// dense path: below it the O(n³) elimination is cheap, bit-stable, and
// serves as the crossval reference.
const denseAutoCutover = 512

// String returns the canonical spelling of the strategy.
func (s SolverStrategy) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverDense:
		return "dense"
	case SolverGaussSeidel:
		return "gauss_seidel"
	default:
		return fmt.Sprintf("solver(%d)", int(s))
	}
}

// Valid reports whether s is a known strategy.
func (s SolverStrategy) Valid() bool {
	return s >= SolverAuto && s <= SolverGaussSeidel
}

// SparseOptions configures the sparse steady-state solvers.
type SparseOptions struct {
	// Strategy selects the solver; the zero value is SolverAuto.
	Strategy SolverStrategy
	// AssumeIrreducible skips the strong-connectivity pre-check. Set it
	// only for chains that are irreducible by construction (e.g. the
	// availability birth–death products with all rates positive): an
	// iterative solver can return one recurrent class's mixture on a
	// reducible chain, so external input must keep the check on.
	AssumeIrreducible bool
}

// RateEmitter enumerates the transitions attached to state i as
// (neighbor, rate) pairs with rate > 0.
type RateEmitter func(i int, emit func(j int, rate float64))

// GeneratorCSR materializes an infinitesimal generator Q in CSR form
// from an outgoing-transition emitter: out(i) emits each transition
// i → j with its rate, and the diagonal is filled with the negated row
// sum. Rows are generated lazily in state order — typically straight
// off a mixed-radix StateEncoder — so no dense matrix and no entry map
// ever exist.
func GeneratorCSR(n int, out RateEmitter) *linalg.Sparse {
	return linalg.BuildCSR(n, func(i int, emit func(j int, v float64)) {
		var total float64
		out(i, func(j int, rate float64) {
			if rate == 0 || j == i {
				return
			}
			emit(j, rate)
			total += rate
		})
		if total != 0 {
			emit(i, -total)
		}
	})
}

// AdjointCSR materializes the transposed generator Qᵀ directly from an
// incoming-transition emitter: in(i) emits (j, q_{j→i}) for every
// transition into state i, and outflow(i) returns state i's total
// outgoing rate for the diagonal. Building the adjoint in one pass
// halves peak memory on the steady-state path versus building Q and
// transposing it.
func AdjointCSR(n int, in RateEmitter, outflow func(i int) float64) *linalg.Sparse {
	return linalg.BuildCSR(n, func(i int, emit func(j int, v float64)) {
		in(i, func(j int, rate float64) {
			if rate == 0 || j == i {
				return
			}
			emit(j, rate)
		})
		if total := outflow(i); total != 0 {
			emit(i, -total)
		}
	})
}

// SteadyStateCSR solves π Q = 0, Σ π = 1 for an ergodic CTMC given by
// its sparse generator. It is the sparse counterpart of SteadyState:
// the generator is validated in O(nnz), checked for strong connectivity
// (unless opts.AssumeIrreducible), transposed, and handed to the
// strategy-selected solver.
func SteadyStateCSR(q *linalg.Sparse, opts SparseOptions) (linalg.Vector, error) {
	n := q.N()
	if n == 0 {
		return nil, fmt.Errorf("ctmc: empty generator")
	}
	if err := validateGeneratorCSR(q); err != nil {
		return nil, err
	}
	at := q.Transpose()
	if !opts.AssumeIrreducible {
		if err := checkIrreducible(q, at); err != nil {
			return nil, err
		}
		opts.AssumeIrreducible = true // already verified; don't redo from the adjoint
	}
	return SteadyStateAdjoint(at, opts)
}

// SteadyStateAdjoint solves the steady state given the transposed
// generator Qᵀ in CSR form. Callers that can emit incoming transitions
// directly (AdjointCSR) use this entry point to avoid materializing Q
// at all. The adjoint is validated in O(nnz); unless
// opts.AssumeIrreducible is set, strong connectivity is verified (at
// the cost of one transpose back to Q).
func SteadyStateAdjoint(at *linalg.Sparse, opts SparseOptions) (linalg.Vector, error) {
	n := at.N()
	if n == 0 {
		return nil, fmt.Errorf("ctmc: empty generator")
	}
	if !opts.Strategy.Valid() {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "ctmc", "unknown solver strategy %v", opts.Strategy)
	}
	if err := validateAdjointCSR(at); err != nil {
		return nil, err
	}
	if !opts.AssumeIrreducible {
		if err := checkIrreducible(at.Transpose(), at); err != nil {
			return nil, err
		}
	}

	if opts.Strategy == SolverDense || (opts.Strategy == SolverAuto && n <= denseAutoCutover) {
		if err := wfmserr.Default.CheckMatrixDim("ctmc", n); err != nil {
			return nil, err
		}
		return steadyDense(at.Dense())
	}
	pi, err := solveNormalized(at)
	if err != nil {
		code := wfmserr.CodeInvalidModel
		if errors.Is(err, linalg.ErrNoConvergence) {
			code = wfmserr.CodeNoConvergence
		}
		return nil, wfmserr.Wrap(err, code, "ctmc", "sparse steady-state solve (is the chain irreducible?)").
			With("states", n).With("solver", opts.Strategy.String())
	}
	return cleanDistribution(pi)
}

// solveNormalized runs Gauss-Seidel on the normalized system
// A x = e_{n-1}, A = Qᵀ with implicit ones row, verifies the residual,
// and records the solve in the solver counters.
func solveNormalized(at *linalg.Sparse) (linalg.Vector, error) {
	x, iters, err := linalg.OnesRowGaussSeidel(at, nil, linalg.GaussSeidelOptions{})
	if err != nil {
		return nil, err
	}
	if err := normalizedResidualOK(linalg.OnesRow{A: at}, x); err != nil {
		return nil, err
	}
	linalg.RecordSolve("sparse_gauss_seidel", iters, false)
	return x, nil
}

// normalizedResidualOK verifies A x ≈ e_{n-1} for the normalized
// steady-state system, mirroring the dense path's residual check so an
// iterative solver cannot hand back a vector that merely stopped moving.
func normalizedResidualOK(sys linalg.OnesRow, x linalg.Vector) error {
	n := sys.N()
	r := linalg.NewVector(n)
	sys.Apply(r, x)
	r[n-1] -= 1
	var worst float64
	for _, v := range r {
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	// Scale by the largest rate magnitude so fast chains are not held
	// to an absolute tolerance their entries cannot meet.
	var scale float64
	for _, d := range sys.A.Diag() {
		if a := math.Abs(d); a > scale {
			scale = a
		}
	}
	if scale < 1 {
		scale = 1
	}
	if worst > 1e-8*scale || math.IsNaN(worst) {
		return fmt.Errorf("ctmc: steady-state residual %v exceeds tolerance: %w", worst, linalg.ErrNoConvergence)
	}
	return nil
}

// steadyDense solves the dense adjoint a = Qᵀ for the stationary
// distribution: the historical dense solve (the normalization Σ π = 1
// replaces a's last row; Gauss-Seidel with LU fallback), the exact path
// crossval treats as the reference.
func steadyDense(a *linalg.Matrix) (linalg.Vector, error) {
	n := a.Rows()
	last := a.Row(n - 1)
	for j := range last {
		last[j] = 1
	}
	b := linalg.NewVector(n)
	b[n-1] = 1
	pi, err := linalg.Solve(a, b)
	if err != nil {
		code := wfmserr.CodeInvalidModel
		if errors.Is(err, linalg.ErrNoConvergence) {
			code = wfmserr.CodeNoConvergence
		}
		return nil, wfmserr.Wrap(err, code, "ctmc", "steady-state solve (is the chain irreducible?)")
	}
	return cleanDistribution(pi)
}

// cleanDistribution clamps round-off negatives and renormalizes, exactly
// as the dense path does.
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

// validateGeneratorCSR checks a sparse generator the way
// ValidateGenerator checks a dense one: finite entries, nonnegative
// off-diagonal rates, rows summing to zero (relative to the row scale).
func validateGeneratorCSR(q *linalg.Sparse) error {
	n := q.N()
	var err error
	for i := 0; i < n && err == nil; i++ {
		var sum, scale float64
		q.Row(i, func(j int, x float64) {
			if err != nil {
				return
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				err = fmt.Errorf("ctmc: generator entry q[%d][%d] = %v", i, j, x)
				return
			}
			if j != i && x < 0 {
				err = fmt.Errorf("ctmc: negative off-diagonal rate q[%d][%d] = %v", i, j, x)
				return
			}
			sum += x
			if a := math.Abs(x); a > scale {
				scale = a
			}
		})
		if err != nil {
			return err
		}
		if scale == 0 {
			scale = 1
		}
		if math.Abs(sum) > 1e-9*scale {
			return fmt.Errorf("ctmc: generator row %d sums to %v, want 0", i, sum)
		}
	}
	return err
}

// validateAdjointCSR checks the transposed generator: finite entries,
// nonnegative off-diagonal rates, and columns of Qᵀ (= rows of Q)
// summing to zero relative to their scale. One O(nnz) pass with two
// O(n) accumulators.
func validateAdjointCSR(at *linalg.Sparse) error {
	n := at.N()
	sums := make([]float64, n)
	scales := make([]float64, n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		at.Row(i, func(j int, x float64) {
			if err != nil {
				return
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				err = fmt.Errorf("ctmc: generator entry q[%d][%d] = %v", j, i, x)
				return
			}
			if j != i && x < 0 {
				err = fmt.Errorf("ctmc: negative off-diagonal rate q[%d][%d] = %v", j, i, x)
				return
			}
			sums[j] += x
			if a := math.Abs(x); a > scales[j] {
				scales[j] = a
			}
		})
	}
	if err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		scale := scales[j]
		if scale == 0 {
			scale = 1
		}
		if math.Abs(sums[j]) > 1e-9*scale {
			return fmt.Errorf("ctmc: generator row %d sums to %v, want 0", j, sums[j])
		}
	}
	return nil
}

// checkIrreducible verifies strong connectivity of the transition graph:
// state 0 reaches every state (BFS over Q's rows) and every state
// reaches state 0 (BFS over Qᵀ's rows). Reducible chains must be
// rejected here because an iterative solver can converge to a single
// recurrent class's mixture with a zero residual, silently disagreeing
// with the dense path's rejection.
func checkIrreducible(q, at *linalg.Sparse) error {
	if !allReachable(q) {
		return wfmserr.New(wfmserr.CodeInvalidModel, "ctmc",
			"chain is not irreducible: some states are unreachable from state 0")
	}
	if !allReachable(at) {
		return wfmserr.New(wfmserr.CodeInvalidModel, "ctmc",
			"chain is not irreducible: some states cannot reach state 0")
	}
	return nil
}

// allReachable reports whether a BFS over m's adjacency (off-diagonal
// nonzeros) starting at state 0 visits every state.
func allReachable(m *linalg.Sparse) bool {
	n := m.N()
	visited := make([]bool, n)
	queue := make([]int, 0, 64)
	visited[0] = true
	queue = append(queue, 0)
	count := 1
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		m.Row(i, func(j int, v float64) {
			if j != i && v != 0 && !visited[j] {
				visited[j] = true
				count++
				queue = append(queue, j)
			}
		})
	}
	return count == n
}
