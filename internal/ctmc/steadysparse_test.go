package ctmc

import (
	"math"
	"math/rand"
	"testing"

	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// emitterFromDense adapts a dense generator to a RateEmitter over its
// positive off-diagonal rates.
func emitterFromDense(q *linalg.Matrix) (int, RateEmitter) {
	n := q.Rows()
	return n, func(i int, emit func(j int, rate float64)) {
		for j := 0; j < n; j++ {
			if j != i && q.At(i, j) > 0 {
				emit(j, q.At(i, j))
			}
		}
	}
}

func TestGeneratorCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		q := randomErgodicGenerator(rng, 2+rng.Intn(10))
		n, out := emitterFromDense(q)
		s := GeneratorCSR(n, out)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got, want := s.At(i, j), q.At(i, j)
				if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
					t.Fatalf("trial %d: q[%d][%d] = %v, dense %v", trial, i, j, got, want)
				}
			}
		}
		if err := validateGeneratorCSR(s); err != nil {
			t.Fatalf("trial %d: generated CSR invalid: %v", trial, err)
		}
	}
}

func TestAdjointCSRMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		q := randomErgodicGenerator(rng, 2+rng.Intn(10))
		n, out := emitterFromDense(q)
		s := GeneratorCSR(n, out)
		want := s.Transpose()

		// Incoming-transition emitter: in(i) gets every j → i arc.
		in := func(i int, emit func(j int, rate float64)) {
			for j := 0; j < n; j++ {
				if j != i && q.At(j, i) > 0 {
					emit(j, q.At(j, i))
				}
			}
		}
		outflow := func(i int) float64 { return -q.At(i, i) }
		at := AdjointCSR(n, in, outflow)
		if at.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: adjoint nnz %d, transpose nnz %d", trial, at.NNZ(), want.NNZ())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g, w := at.At(i, j), want.At(i, j); math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
					t.Fatalf("trial %d: at[%d][%d] = %v, transpose %v", trial, i, j, g, w)
				}
			}
		}
		if err := validateAdjointCSR(at); err != nil {
			t.Fatalf("trial %d: adjoint invalid: %v", trial, err)
		}
	}
}

// TestSteadyStateCSRStrategiesMatchDense runs every strategy against the
// historical dense SteadyState on random ergodic generators. Dense and
// auto must always solve; Gauss-Seidel carries no convergence guarantee
// on arbitrary generators, so a typed no_convergence from it is
// tolerated — any other failure, or any converged answer that disagrees
// with the dense reference, fails.
func TestSteadyStateCSRStrategiesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	strategies := []SolverStrategy{SolverAuto, SolverDense, SolverGaussSeidel}
	for trial := 0; trial < 15; trial++ {
		q := randomErgodicGenerator(rng, 2+rng.Intn(12))
		want, err := SteadyState(q)
		if err != nil {
			t.Fatalf("trial %d: dense reference: %v", trial, err)
		}
		n, out := emitterFromDense(q)
		s := GeneratorCSR(n, out)
		for _, strat := range strategies {
			got, err := SteadyStateCSR(s, SparseOptions{Strategy: strat})
			if err != nil {
				if strat == SolverGaussSeidel && wfmserr.CodeOf(err) == wfmserr.CodeNoConvergence {
					continue
				}
				t.Fatalf("trial %d: %v: %v", trial, strat, err)
			}
			tol := 1e-7
			if strat == SolverDense || strat == SolverAuto {
				// Small systems route auto onto the dense path; both must
				// reproduce the historical solver bit for bit.
				tol = 0
			}
			for i := range want {
				if d := math.Abs(got[i] - want[i]); d > tol {
					t.Fatalf("trial %d: %v: π[%d] = %v, dense %v (Δ=%v)", trial, strat, i, got[i], want[i], d)
				}
			}
		}
	}
}

// TestSteadyStateAdjointMatchesCSR solves the same chain through the
// generator entry point and the direct-adjoint entry point.
func TestSteadyStateAdjointMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := randomErgodicGenerator(rng, 9)
	n, out := emitterFromDense(q)
	s := GeneratorCSR(n, out)
	want, err := SteadyStateCSR(s, SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SteadyStateAdjoint(s.Transpose(), SparseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("π[%d] = %v via adjoint, %v via generator", i, got[i], want[i])
		}
	}
}

// TestSteadyStateCSRRejectsReducible checks rejection parity: a chain
// with two recurrent classes (0↔1 and 2↔3) must be rejected by every
// strategy with a typed invalid-model error — an iterative solver
// could otherwise converge to one class's mixture with zero residual —
// and by the dense legacy path.
func TestSteadyStateCSRRejectsReducible(t *testing.T) {
	reducible := GeneratorCSR(4, func(i int, emit func(j int, rate float64)) {
		emit(i^1, 1)
	})
	for _, strat := range []SolverStrategy{SolverAuto, SolverDense, SolverGaussSeidel} {
		_, err := SteadyStateCSR(reducible, SparseOptions{Strategy: strat})
		if err == nil {
			t.Fatalf("%v accepted a two-class reducible chain", strat)
		}
		if code := wfmserr.CodeOf(err); code != wfmserr.CodeInvalidModel {
			t.Fatalf("%v: code %v, want %v", strat, code, wfmserr.CodeInvalidModel)
		}
	}
	if _, err := SteadyState(reducible.Dense()); err == nil {
		t.Fatal("dense legacy path accepted the reducible chain")
	}
}

// TestSteadyStateCSRAssumeIrreducibleSkipsCheck documents the escape
// hatch: with AssumeIrreducible the connectivity check is skipped and a
// reducible chain reaches the solver (which may then return a
// single-class mixture). Only chains irreducible by construction may
// set it.
func TestSteadyStateCSRAssumeIrreducibleSkipsCheck(t *testing.T) {
	reducible := GeneratorCSR(4, func(i int, emit func(j int, rate float64)) {
		emit(i^1, 1)
	})
	pi, err := SteadyStateCSR(reducible, SparseOptions{Strategy: SolverGaussSeidel, AssumeIrreducible: true})
	if err != nil {
		// Rejecting is also acceptable — the point is that the check was
		// skipped, not that the solve must succeed.
		return
	}
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("solver returned an unnormalized vector (Σ=%v)", sum)
	}
}

func TestSteadyStateCSRErrors(t *testing.T) {
	if _, err := SteadyStateCSR(linalg.NewSparseBuilder(0).Build(), SparseOptions{}); err == nil {
		t.Fatal("empty generator accepted")
	}
	ok := GeneratorCSR(2, func(i int, emit func(j int, rate float64)) { emit(1-i, 1) })
	if _, err := SteadyStateCSR(ok, SparseOptions{Strategy: SolverStrategy(99)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// A generator whose rows do not sum to zero must be rejected up front.
	bad := linalg.BuildCSR(2, func(i int, emit func(j int, v float64)) {
		emit(0, 1)
		emit(1, 1)
	})
	if _, err := SteadyStateCSR(bad, SparseOptions{}); err == nil {
		t.Fatal("non-generator matrix accepted")
	}
}

func TestSolverStrategyValid(t *testing.T) {
	for _, s := range []SolverStrategy{SolverAuto, SolverDense, SolverGaussSeidel} {
		if !s.Valid() {
			t.Fatalf("%v not Valid()", s)
		}
	}
	if SolverStrategy(3).Valid() || SolverStrategy(-1).Valid() {
		t.Fatal("out-of-range strategy reported Valid")
	}
}
