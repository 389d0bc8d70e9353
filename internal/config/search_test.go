package config

import (
	"testing"
)

func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	a := paperAnalysis(t, 1)
	cons := Constraints{MaxReplicas: []int{6, 6, 6}}
	for _, goals := range []Goals{
		{MaxUnavailability: 1e-4},
		{MaxUnavailability: 1.5e-6},
		{MaxWaiting: 0.001, MaxUnavailability: 1e-5},
		{MaxWaiting: 0.0005, MaxUnavailability: 1e-6},
	} {
		bb, err := BranchAndBound(a, goals, cons, DefaultOptions())
		if err != nil {
			t.Fatalf("b&b %+v: %v", goals, err)
		}
		ex, err := Exhaustive(a, goals, cons, DefaultOptions())
		if err != nil {
			t.Fatalf("exhaustive %+v: %v", goals, err)
		}
		if bb.Cost != ex.Cost {
			t.Errorf("goals %+v: b&b cost %d vs optimal %d", goals, bb.Cost, ex.Cost)
		}
		if !bb.Assessment.Feasible() {
			t.Errorf("goals %+v: b&b result infeasible", goals)
		}
		if bb.Evaluations >= ex.Evaluations {
			t.Errorf("goals %+v: b&b used %d evaluations, exhaustive %d — pruning is not working",
				goals, bb.Evaluations, ex.Evaluations)
		}
	}
}

func TestBranchAndBoundInfeasible(t *testing.T) {
	a := paperAnalysis(t, 1)
	_, err := BranchAndBound(a, Goals{MaxUnavailability: 1e-12},
		Constraints{MaxReplicas: []int{2, 2, 2}}, DefaultOptions())
	if err == nil {
		t.Error("infeasible goals accepted")
	}
}

func TestBranchAndBoundRespectsConstraints(t *testing.T) {
	a := paperAnalysis(t, 1)
	rec, err := BranchAndBound(a, Goals{MaxUnavailability: 1e-4},
		Constraints{Fixed: []int{3, -1, -1}, MaxReplicas: []int{6, 6, 6}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Config.Replicas[0] != 3 {
		t.Errorf("fixed constraint violated: %v", rec.Config.Replicas)
	}
}

func TestBranchAndBoundValidation(t *testing.T) {
	a := paperAnalysis(t, 1)
	if _, err := BranchAndBound(a, Goals{}, Constraints{}, DefaultOptions()); err == nil {
		t.Error("empty goals accepted")
	}
	if _, err := BranchAndBound(a, Goals{MaxUnavailability: 1e-4},
		Constraints{MinReplicas: []int{1}}, DefaultOptions()); err == nil {
		t.Error("bad constraints accepted")
	}
}

func TestAllPlannersAgreeOnCost(t *testing.T) {
	a := paperAnalysis(t, 60) // performance-bound regime
	goals := Goals{MaxWaiting: 0.0008, MaxUnavailability: 1e-5}
	cons := Constraints{MaxReplicas: []int{8, 8, 8}}
	opts := DefaultOptions()

	ex, err := Exhaustive(a, goals, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := BranchAndBound(a, goals, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Greedy(a, goals, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Cost != ex.Cost {
		t.Errorf("b&b %d vs optimal %d", bb.Cost, ex.Cost)
	}
	if gr.Cost > ex.Cost+1 {
		t.Errorf("greedy %d vs optimal %d", gr.Cost, ex.Cost)
	}
}
