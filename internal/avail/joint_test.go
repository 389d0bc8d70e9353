package avail

import (
	"math"
	"testing"

	"performa/internal/ctmc"
	"performa/internal/wfmserr"
)

// TestEvaluateDelegatesToAuto pins the bench/ shim: EvaluateSolver is
// Evaluate, bit for bit.
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

// TestNewModelBudgets pins the pre-flight: NewModel admits any joint
// space within the state budget and refuses a larger one before
// allocating; SteadyState refuses a live chain above the GTH cutover,
// which Evaluate answers in product form instead.
func TestNewModelBudgets(t *testing.T) {
	m, err := NewModel(paperParams(15, 15, 15), IndependentRepair) // 16³ = 4096 states
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Encoder().Size(); n != 4096 {
		t.Fatalf("state count %d, want 4096", n)
	}
	if _, err := m.SteadyState(); wfmserr.CodeOf(err) != wfmserr.CodeBudgetExceeded {
		t.Fatalf("4096 live states: err = %v, want budget_exceeded", err)
	}
	if _, err := Evaluate(paperParams(15, 15, 15), IndependentRepair); err != nil {
		t.Fatalf("Evaluate at 4096 states: %v", err)
	}
	// 256³ ≈ 1.7e7 states is over the 2^23 state budget.
	if _, err := NewModel(paperParams(255, 255, 255), IndependentRepair); wfmserr.CodeOf(err) != wfmserr.CodeStateSpaceTooLarge {
		t.Fatalf("2^24 states: err = %v, want state_space_too_large", err)
	}
	// Frozen types do not count towards the cutover: 2 live states.
	frozen := paperParams(1, 40, 40)
	frozen[1].FailureRate, frozen[2].Replicas = 0, 0
	m, err = NewModel(frozen, SingleCrew)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SteadyState(); err != nil {
		t.Fatalf("82 states, 2 live: %v", err)
	}
}

// TestEvaluateAboveCutoverIsProductForm: above jointGTHStates live
// states Evaluate is EvaluateProductForm with the joint vector built,
// bit for bit, and its marginals are the binomial closed form
// P(X = j) = C(Y,j) a^j u^{Y−j}. The chain is the (7,7,7,7,7) one with
// harsh per-server unavailabilities, 32,768 states. The Erlang refusal
// holds above the cutover too.
func TestEvaluateAboveCutoverIsProductForm(t *testing.T) {
	us := []float64{0.30, 0.40, 0.45}
	replicas := []int{7, 7, 7, 7, 7}
	params := harshParams(replicas, us...)
	rep, err := Evaluate(params, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := EvaluateProductForm(params, IndependentRepair, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StateProbs) != 32768 || len(pf.StateProbs) != 32768 {
		t.Fatalf("%d and %d states, want 32768", len(rep.StateProbs), len(pf.StateProbs))
	}
	for i := range pf.StateProbs {
		if math.Float64bits(rep.StateProbs[i]) != math.Float64bits(pf.StateProbs[i]) {
			t.Fatalf("π[%d] = %v, product form %v", i, rep.StateProbs[i], pf.StateProbs[i])
		}
	}
	if rep.Unavailability != pf.Unavailability || rep.Availability != pf.Availability {
		t.Fatalf("unavailability %v, product form %v", rep.Unavailability, pf.Unavailability)
	}
	for x, y := range replicas {
		u := us[x%len(us)]
		for j := 0; j <= y; j++ {
			want := binom(y, j) * math.Pow(1-u, float64(j)) * math.Pow(u, float64(y-j))
			if got := rep.TypeMarginals[x][j]; math.Abs(got-want) > 1e-12*want {
				t.Fatalf("type %d: P(X=%d) = %v, binomial %v", x, j, got, want)
			}
		}
	}

	erlang := harshParams(replicas, us...)
	erlang[0].RepairStages = 2
	if _, err := Evaluate(erlang, SingleCrew); err == nil {
		t.Fatal("Evaluate accepted Erlang stages above the cutover")
	}
}
