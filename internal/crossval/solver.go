package crossval

import (
	"fmt"
	"math"

	"performa/internal/avail"
	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// Solver-differential tolerances. tolSolver bounds the disagreement
// between the dense direct reference and an iterative solver that
// stopped at its residual tolerance; tolBitwise admits no deviation at
// all and guards the paths that are deterministic by construction (a
// dense repeat, and SolverAuto below its dense cutover).
var (
	tolSolver  = Tol{Rel: 1e-8, Abs: 1e-10}
	tolBitwise = Tol{}
)

// solverAutoDenseLimit mirrors ctmc's dense auto-cutover: joint chains
// at or below this size take the dense path under SolverAuto, so auto
// and forced-dense must agree bit for bit there.
const solverAutoDenseLimit = 512

// CheckSolvers runs only the solver-differential route over the system:
// the same availability CTMC solved dense (GTH), Gauss-Seidel, and auto,
// the Erlang phase-expanded product form with GTH marginals against a
// Gauss-Seidel reference, plus rejection-parity probes on reducible and
// ill-conditioned chains. It is fully deterministic — no simulation —
// so it is cheap enough to sweep many systems.
func CheckSolvers(sys *System, opt Options) ([]Disagreement, error) {
	opt.setDefaults()
	return solverRoute(nil, sys, opt)
}

// solverRoute cross-checks every steady-state solver strategy against
// the dense direct path on the system's joint availability CTMC. The
// dense solve is the reference: systems beyond its budget are covered by
// the scaling experiments, not this route.
func solverRoute(ds []Disagreement, analytic *System, opt Options) ([]Disagreement, error) {
	params, err := avail.ParamsFromEnvironment(analytic.Env, analytic.Replicas)
	if err != nil {
		return nil, err
	}
	dense, err := avail.EvaluateSolver(params, avail.IndependentRepair, ctmc.SolverDense)
	if err != nil {
		if wfmserr.CodeOf(err) == wfmserr.CodeBudgetExceeded {
			return rejectionParity(ds), nil // dense can't handle it; nothing to reference
		}
		return nil, fmt.Errorf("crossval: solver route dense reference: %w", err)
	}

	// The dense path is one fixed sequence of floating-point operations;
	// a repeat must reproduce it bit for bit.
	repeat, err := avail.EvaluateSolver(params, avail.IndependentRepair, ctmc.SolverDense)
	if err != nil {
		return nil, fmt.Errorf("crossval: solver route dense repeat: %w", err)
	}
	ds = compare(ds, "solver", "unavailability[dense-repeat]",
		dense.Unavailability, repeat.Unavailability, 0, tolBitwise)

	autoTol := tolSolver
	if len(dense.StateProbs) <= solverAutoDenseLimit {
		// Below the cutover SolverAuto IS the dense path: bit-identical.
		autoTol = tolBitwise
	}
	for _, p := range []struct {
		strategy ctmc.SolverStrategy
		tol      Tol
	}{
		{ctmc.SolverAuto, autoTol},
		{ctmc.SolverGaussSeidel, tolSolver},
	} {
		rep, err := avail.EvaluateSolver(params, avail.IndependentRepair, p.strategy)
		if err != nil {
			return nil, fmt.Errorf("crossval: solver route %v: %w", p.strategy, err)
		}
		ds = compare(ds, "solver", fmt.Sprintf("unavailability[%v-vs-dense]", p.strategy),
			dense.Unavailability, rep.Unavailability, 0, p.tol)
		ds = compare(ds, "solver", fmt.Sprintf("statevec-maxdiff[%v-vs-dense]", p.strategy),
			0, maxAbsDiff(dense.StateProbs, rep.StateProbs), 0, p.tol)
	}

	// The one marginal that solves a system instead of evaluating a
	// formula is the Erlang phase expansion under a single crew, so the
	// product-form leg runs there: 2–4 repair stages per type, picked
	// from the seed, avail's GTH marginals against this package's own
	// sparse Gauss-Seidel solve of the same phase chain.
	erlang := append([]avail.TypeParams(nil), params...)
	for x := range erlang {
		erlang[x].RepairStages = 2 + int((analytic.Seed+uint64(x))%3)
	}
	pf, err := avail.EvaluateProductForm(erlang, avail.SingleCrew, false)
	if err != nil {
		return nil, fmt.Errorf("crossval: solver route product form: %w", err)
	}
	refAvail := 1.0
	for x, p := range erlang {
		ref, err := erlangReference(p)
		if err != nil {
			return nil, fmt.Errorf("crossval: solver route Erlang reference, type %d: %w", x, err)
		}
		refAvail *= 1 - ref[0]
		ds = compare(ds, "solver", fmt.Sprintf("pf-erlang-marginal-maxdiff[type%d,gth-vs-gauss_seidel]", x),
			0, maxAbsDiff(ref, pf.TypeMarginals[x]), 0, tolSolver)
	}
	ds = compare(ds, "solver", "pf-erlang-unavailability[gth-vs-gauss_seidel]",
		1-refAvail, pf.Unavailability, 0, tolSolver)

	return rejectionParity(ds), nil
}

// erlangReference solves one type's Erlang single-crew phase chain
// independently of avail: states (j, ph) at j·k + ph − 1 with the full
// state last, streamed as a CSR generator through the sparse
// Gauss-Seidel iteration, then summed over phases into P(X = j).
func erlangReference(p avail.TypeParams) (linalg.Vector, error) {
	y, k := p.Replicas, p.RepairStages
	out := linalg.NewVector(y + 1)
	if y == 0 || p.FailureRate == 0 {
		out[y] = 1
		return out, nil
	}
	full := y * k
	stage := float64(k) * p.RepairRate
	q := ctmc.GeneratorCSR(full+1, func(i int, emit func(j int, rate float64)) {
		if i == full {
			emit(full-k, float64(y)*p.FailureRate)
			return
		}
		// A failure keeps the phase; a stage completion (the last one
		// returns a server) is always the next state.
		if j := i / k; j > 0 {
			emit(i-k, float64(j)*p.FailureRate)
		}
		emit(i+1, stage)
	})
	pi, err := ctmc.SteadyStateCSR(q, ctmc.SparseOptions{Strategy: ctmc.SolverGaussSeidel})
	if err != nil {
		return nil, err
	}
	for i, v := range pi {
		out[i/k] += v
	}
	return out, nil
}

// maxAbsDiff returns the infinity-norm distance between two equal-length
// vectors (NaN on length mismatch, which compare flags).
func maxAbsDiff(a, b linalg.Vector) float64 {
	if len(a) != len(b) {
		return math.NaN()
	}
	var worst float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// rejectionParity probes fixed degenerate chains on which the dense and
// sparse paths must agree about solvability: a chain with two
// disconnected recurrent classes (every path must reject — an iterative
// solver could otherwise converge silently to an arbitrary mixture of
// the two classes) and an ill-conditioned but irreducible chain (the
// paths must agree on whether it is solvable, and on the dominant entry
// when it is). The probes are deterministic and a handful of states, so
// running them on every check costs nothing.
func rejectionParity(ds []Disagreement) []Disagreement {
	// Two disconnected 2-cycles: 0↔1 and 2↔3.
	reducible := ctmc.GeneratorCSR(4, func(i int, emit func(j int, rate float64)) {
		emit(i^1, 1)
	})
	for _, s := range []ctmc.SolverStrategy{ctmc.SolverAuto, ctmc.SolverDense, ctmc.SolverGaussSeidel} {
		if _, err := ctmc.SteadyStateCSR(reducible, ctmc.SparseOptions{Strategy: s}); err == nil {
			ds = append(ds, Disagreement{
				Route: "solver-reject", Metric: fmt.Sprintf("reducible[%v]", s), Ref: 1, Obs: 0,
			})
		}
	}
	// The dense-matrix entry point (GTH over the full band) must reject
	// it too, through GTH's own reducibility check.
	if _, err := ctmc.SteadyState(reducible.Dense()); err == nil {
		ds = append(ds, Disagreement{
			Route: "solver-reject", Metric: "reducible[legacy-dense]", Ref: 1, Obs: 0,
		})
	}

	// Stiff birth–death chain: forward rates 1e3, backward 1e-3, so the
	// stationary masses span twelve orders of magnitude.
	stiff := ctmc.GeneratorCSR(3, func(i int, emit func(j int, rate float64)) {
		if i < 2 {
			emit(i+1, 1e3)
		}
		if i > 0 {
			emit(i-1, 1e-3)
		}
	})
	denseV, denseErr := ctmc.SteadyStateCSR(stiff, ctmc.SparseOptions{Strategy: ctmc.SolverDense})
	v, err := ctmc.SteadyStateCSR(stiff, ctmc.SparseOptions{Strategy: ctmc.SolverGaussSeidel})
	switch {
	case (err == nil) != (denseErr == nil):
		ds = append(ds, Disagreement{
			Route: "solver-reject", Metric: "ill-conditioned[gauss_seidel-vs-dense]",
			Ref: flag(denseErr == nil), Obs: flag(err == nil),
		})
	case err == nil:
		ds = compare(ds, "solver", "ill-conditioned-dominant[gauss_seidel-vs-dense]",
			denseV[2], v[2], 0, tolSolver)
	}
	return ds
}

// flag maps a solvability outcome to the Ref/Obs convention of the
// rejection-parity disagreements: 1 = solved, 0 = rejected.
func flag(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
