package config

import (
	"context"
	"errors"
	"testing"

	"performa/internal/wfmserr"
)

// Infeasibility must surface as the typed infeasible code from every
// exhaustive-evidence planner, so the server can map it to a
// machine-readable 4xx instead of an opaque failure.
func TestInfeasibleIsTyped(t *testing.T) {
	a := paperAnalysis(t, 1)
	goals := Goals{MaxUnavailability: 1e-12}
	cons := Constraints{MaxReplicas: []int{2, 2, 2}}
	planners := map[string]func() error{
		"greedy":     func() error { _, err := Greedy(a, goals, cons, DefaultOptions()); return err },
		"exhaustive": func() error { _, err := Exhaustive(context.Background(), a, goals, cons, DefaultOptions()); return err },
		"bnb":        func() error { _, err := BranchAndBound(a, goals, cons, DefaultOptions()); return err },
	}
	for name, run := range planners {
		err := run()
		if err == nil {
			t.Fatalf("%s: expected infeasibility error", name)
		}
		if code := wfmserr.CodeOf(err); code != wfmserr.CodeInfeasible {
			t.Errorf("%s: code = %q, want %q (err: %v)", name, code, wfmserr.CodeInfeasible, err)
		}
		if !errors.Is(err, wfmserr.ErrInfeasible) {
			t.Errorf("%s: errors.Is(err, ErrInfeasible) = false", name)
		}
	}
}

// An exhausted iteration budget must keep the progress the search made:
// the partial trace and the best configuration reached ride in the
// typed error's details so callers can resume from there.
func TestGreedyBudgetKeepsPartialProgress(t *testing.T) {
	a := paperAnalysis(t, 60)
	opts := DefaultOptions()
	opts.MaxIterations = 3
	_, err := Greedy(a, Goals{MaxWaiting: 1e-4}, Constraints{}, opts)
	if err == nil {
		t.Fatal("expected budget_exceeded")
	}
	var e *wfmserr.Error
	if !errors.As(err, &e) || e.Code != wfmserr.CodeBudgetExceeded {
		t.Fatalf("err = %v, want typed budget_exceeded", err)
	}
	trace, ok := e.Detail["partial_trace"].(PartialTrace)
	if !ok || len(trace) == 0 {
		t.Fatalf("partial_trace detail = %#v, want non-empty PartialTrace", e.Detail["partial_trace"])
	}
	if len(trace) != opts.MaxIterations {
		t.Errorf("partial trace has %d steps, want %d", len(trace), opts.MaxIterations)
	}
	best, ok := e.Detail["best_config"].([]int)
	if !ok || len(best) != a.Env().K() {
		t.Fatalf("best_config detail = %#v, want replication vector", e.Detail["best_config"])
	}
	// The best-so-far config is the one the next iteration would have
	// assessed: the last traced config plus its chosen addition.
	last := trace[len(trace)-1]
	if last.AddedType < 0 {
		t.Fatalf("last partial step %+v has no added type", last)
	}
	want := append([]int(nil), last.Config.Replicas...)
	want[last.AddedType]++
	for x := range want {
		if best[x] != want[x] {
			t.Fatalf("best_config = %v, want %v", best, want)
		}
	}
}

// A warm start from an oversized deployed configuration must trim back:
// removal steps appear in the trace, the result stays feasible, and it
// is feasibility-equivalent to (meets exactly the goals of) a cold run.
func TestGreedyWarmStartTrimsOversized(t *testing.T) {
	a := paperAnalysis(t, 1)
	goals := Goals{MaxUnavailability: 1.5e-6, MaxWaiting: 0.1}
	cold, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	start := []int{6, 6, 6}
	warm, err := Greedy(a, goals, Constraints{StartFrom: start}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Assessment.Feasible() {
		t.Fatal("warm-start result infeasible")
	}
	if warm.Cost >= 18 {
		t.Errorf("warm start did not trim: cost %d from start 18", warm.Cost)
	}
	if warm.Cost > 18 || warm.Cost < cold.Cost {
		t.Errorf("warm cost %d outside [cold %d, start 18]", warm.Cost, cold.Cost)
	}
	removals := 0
	for _, st := range warm.Trace {
		if st.RemovedType >= 0 {
			removals++
			if st.AddedType >= 0 {
				t.Errorf("step %+v both adds and removes", st)
			}
			if st.Reason != "cost reduction" {
				t.Errorf("removal step reason = %q", st.Reason)
			}
		}
	}
	if removals == 0 {
		t.Error("no removal steps in warm-start trace")
	}
}

// A warm start from the constraint floor must behave exactly like the
// cold search on the way up, then trim only if the cold result was
// oversized — so the result is never worse than cold.
func TestGreedyWarmStartFromFloorNoWorseThanCold(t *testing.T) {
	a := paperAnalysis(t, 1)
	goals := Goals{MaxUnavailability: 1.5e-6}
	cold, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Greedy(a, goals, Constraints{StartFrom: []int{1, 1, 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Assessment.Feasible() {
		t.Fatal("warm-start result infeasible")
	}
	if warm.Cost > cold.Cost {
		t.Errorf("warm-start cost %d > cold cost %d", warm.Cost, cold.Cost)
	}
}

// Warm starts respect the bounds: StartFrom entries are clamped into
// [min, max], and removals never cut below the per-type minimum.
func TestGreedyWarmStartRespectsBounds(t *testing.T) {
	a := paperAnalysis(t, 1)
	goals := Goals{MaxUnavailability: 1.5e-6}
	cons := Constraints{
		MinReplicas: []int{2, 1, 1},
		MaxReplicas: []int{4, 4, 8},
		StartFrom:   []int{9, 0, 5},
	}
	rec, err := Greedy(a, goals, cons, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo := []int{2, 1, 1}
	hi := []int{4, 4, 8}
	for _, st := range rec.Trace {
		for x, y := range st.Config.Replicas {
			if y < lo[x] || y > hi[x] {
				t.Fatalf("trace config %v violates bounds [%v, %v]", st.Config.Replicas, lo, hi)
			}
		}
	}
	for x, y := range rec.Config.Replicas {
		if y < lo[x] || y > hi[x] {
			t.Fatalf("result %v violates bounds", rec.Config.Replicas)
		}
	}
}

// An infeasible warm start (deployed config no longer meets the goals)
// grows from the deployed configuration, not from scratch.
func TestGreedyWarmStartGrowsFromDeployed(t *testing.T) {
	a := paperAnalysis(t, 60)
	goals := Goals{MaxWaiting: 0.05}
	start := []int{2, 2, 2}
	rec, err := Greedy(a, goals, Constraints{StartFrom: start}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Assessment.Feasible() {
		t.Fatal("result infeasible")
	}
	first := rec.Trace[0].Config.Replicas
	for x := range first {
		if first[x] < start[x] {
			t.Fatalf("first candidate %v below deployed start %v", first, start)
		}
	}
}
