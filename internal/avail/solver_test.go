package avail

import (
	"math"
	"testing"

	"performa/internal/ctmc"
	"performa/internal/wfmserr"
)

// TestEvaluateSolverStrategiesAgree solves the paper's asymmetric
// replication example under every solver strategy and requires solver-
// tolerance agreement with the forced-dense reference on both the
// headline metric and the full state vector; the product-form fast path
// must agree too (exact for independent repair).
func TestEvaluateSolverStrategiesAgree(t *testing.T) {
	params := paperParams(2, 3, 4)
	ref, err := EvaluateSolver(params, IndependentRepair, ctmc.SolverDense)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ctmc.SolverStrategy{ctmc.SolverAuto, ctmc.SolverGaussSeidel} {
		rep, err := EvaluateSolver(params, IndependentRepair, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if d := math.Abs(rep.Unavailability - ref.Unavailability); d > 1e-9 {
			t.Fatalf("%v: unavailability %v, dense %v (Δ=%v)", s, rep.Unavailability, ref.Unavailability, d)
		}
		for i := range ref.StateProbs {
			if d := math.Abs(rep.StateProbs[i] - ref.StateProbs[i]); d > 1e-9 {
				t.Fatalf("%v: π[%d] = %v, dense %v", s, i, rep.StateProbs[i], ref.StateProbs[i])
			}
		}
	}
	pf, err := EvaluateProductFormSolver(params, IndependentRepair, false, nil, ctmc.SolverAuto)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(pf.Unavailability - ref.Unavailability); d > 1e-12 {
		t.Fatalf("product form: unavailability %v, dense %v (Δ=%v)", pf.Unavailability, ref.Unavailability, d)
	}
}

// TestEvaluateDelegatesToAuto pins the refactor: the historical Evaluate
// entry point is now exactly EvaluateSolver with the auto strategy, bit
// for bit.
func TestEvaluateDelegatesToAuto(t *testing.T) {
	params := paperParams(2, 2, 3)
	legacy, err := Evaluate(params, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := EvaluateSolver(params, IndependentRepair, ctmc.SolverAuto)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Unavailability != explicit.Unavailability {
		t.Fatalf("Evaluate %v != EvaluateSolver(auto) %v", legacy.Unavailability, explicit.Unavailability)
	}
	for i := range legacy.StateProbs {
		if legacy.StateProbs[i] != explicit.StateProbs[i] {
			t.Fatalf("π[%d] differs: %v vs %v", i, legacy.StateProbs[i], explicit.StateProbs[i])
		}
	}
}

// TestTypeMarginalSolverErlangAgreement drives the Erlang single-crew
// marginal (the one marginal that needs a real CTMC solve) through auto
// and Gauss-Seidel and requires agreement with the forced-dense path.
func TestTypeMarginalSolverErlangAgreement(t *testing.T) {
	p := TypeParams{Replicas: 5, FailureRate: 0.2, RepairRate: 1, RepairStages: 3}
	ref, err := TypeMarginalSolver(p, SingleCrew, ctmc.SolverDense)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ctmc.SolverStrategy{ctmc.SolverAuto, ctmc.SolverGaussSeidel} {
		got, err := TypeMarginalSolver(p, SingleCrew, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%v: marginal length %d, dense %d", s, len(got), len(ref))
		}
		for j := range ref {
			if d := math.Abs(got[j] - ref[j]); d > 1e-9 {
				t.Fatalf("%v: P(X=%d) = %v, dense %v", s, j, got[j], ref[j])
			}
		}
	}
}

// TestNewModelWithSolverBudgets pins the strategy-dependent pre-flight:
// a 4096-state joint chain is over the dense MaxMatrixDim budget but
// comfortably inside the sparse MaxStates budget.
func TestNewModelWithSolverBudgets(t *testing.T) {
	params := paperParams(15, 15, 15) // (15+1)^3 = 4096 states
	if _, err := NewModelWithSolver(params, IndependentRepair, ctmc.SolverDense); wfmserr.CodeOf(err) != wfmserr.CodeBudgetExceeded {
		t.Fatalf("forced dense at 4096 states: err = %v, want budget_exceeded", err)
	}
	m, err := NewModelWithSolver(params, IndependentRepair, ctmc.SolverGaussSeidel)
	if err != nil {
		t.Fatalf("sparse at 4096 states: %v", err)
	}
	if n := m.Encoder().Size(); n != 4096 {
		t.Fatalf("state count %d, want 4096", n)
	}
	if _, err := NewModelWithSolver(params, IndependentRepair, ctmc.SolverStrategy(99)); err == nil {
		t.Fatal("unknown solver strategy accepted")
	}
}

// TestEvaluateSolverMillionStates is the scaling regression: a
// 100×100×100 replica vector (10^6 joint states, ~4× the former 2^18
// ceiling) must solve
// through the sparse path within the default budget, and its marginals
// must match the binomial closed form P(X = j) = C(Y,j) a^j u^{Y−j}.
// The headline unavailability underflows double precision at this depth
// (u^100), so the marginals and the all-up corner probability are the
// meaningful checks.
func TestEvaluateSolverMillionStates(t *testing.T) {
	if testing.Short() {
		t.Skip("million-state solve in -short mode")
	}
	if raceEnabled {
		t.Skip("million-state solve under the race detector")
	}
	us := []float64{0.08, 0.10, 0.12}
	params := make([]TypeParams, len(us))
	for i, u := range us {
		params[i] = TypeParams{Replicas: 99, FailureRate: u / (1 - u), RepairRate: 1}
	}
	rep, err := EvaluateSolver(params, IndependentRepair, ctmc.SolverGaussSeidel)
	if err != nil {
		t.Fatal(err)
	}
	corner := 1.0
	for x, u := range us {
		m := rep.TypeMarginals[x]
		y := params[x].Replicas
		if len(m) != y+1 {
			t.Fatalf("type %d marginal has %d entries, want %d", x, len(m), y+1)
		}
		for j := 0; j <= y; j++ {
			want := binom(y, j) * math.Pow(1-u, float64(j)) * math.Pow(u, float64(y-j))
			if d := math.Abs(m[j] - want); d > 1e-8 {
				t.Fatalf("type %d: P(X=%d) = %v, binomial %v (Δ=%v)", x, j, m[j], want, d)
			}
		}
		corner *= m[y]
	}
	// P(all servers up) factorizes over the independent types.
	allUp := 1.0
	for _, u := range us {
		allUp *= math.Pow(1-u, 99)
	}
	if d := math.Abs(corner - allUp); d > 1e-8 {
		t.Fatalf("all-up corner probability %v, closed form %v (Δ=%v)", corner, allUp, d)
	}
}
