package config

import (
	"testing"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/workload"
)

// workloadAnalysis builds an analysis of the paper environment under the
// given built-in workflows — the real workloads the shared-evaluator and
// cancellation tests exercise, as opposed to the synthetic
// single-activity charts of config_test.go.
func workloadAnalysis(t *testing.T, flows ...*spec.Workflow) *perf.Analysis {
	t.Helper()
	return analysisIn(t, workload.PaperEnvironment(), flows...)
}

// analysisIn builds an analysis of env under the given workflows.
func analysisIn(t *testing.T, env *spec.Environment, flows ...*spec.Workflow) *perf.Analysis {
	t.Helper()
	var models []*spec.Model
	for _, w := range flows {
		m, err := spec.Build(w, env)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	a, err := perf.NewAnalysis(env, models)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func assertRecommendationsIdentical(t *testing.T, label string, want, got *Recommendation) {
	t.Helper()
	if got.Config.String() != want.Config.String() {
		t.Errorf("%s: config %s != %s", label, got.Config, want.Config)
	}
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %d != %d", label, got.Cost, want.Cost)
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("%s: evaluations %d != %d", label, got.Evaluations, want.Evaluations)
	}
	if got.Assessment.Unavailability != want.Assessment.Unavailability {
		t.Errorf("%s: unavailability %v != %v", label, got.Assessment.Unavailability, want.Assessment.Unavailability)
	}
	for x := range want.Assessment.Perf.Waiting {
		if got.Assessment.Perf.Waiting[x] != want.Assessment.Perf.Waiting[x] {
			t.Errorf("%s: W[%d] = %v, want %v (bit-identical)",
				label, x, got.Assessment.Perf.Waiting[x], want.Assessment.Perf.Waiting[x])
		}
	}
}

// TestSharedEvaluatorWarmCache verifies the shared-evaluator contract
// at the planner level: a search through a caller-supplied evaluator
// returns exactly the fresh-evaluator recommendation, and re-running it
// (or another planner) over the now-warm evaluator returns it again
// without solving a single new availability marginal.
func TestSharedEvaluatorWarmCache(t *testing.T) {
	a := workloadAnalysis(t, workload.EPWorkflow(5))
	goals := Goals{MaxWaiting: 0.002, MaxUnavailability: 1e-5}
	cons := Constraints{MaxReplicas: []int{6, 6, 6}}

	fresh, err := Exhaustive(a, goals, cons, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	shared := DefaultOptions()
	ev, err := performability.NewEvaluator(a, shared.Performability)
	if err != nil {
		t.Fatal(err)
	}
	shared.Evaluator = ev
	cold, err := Exhaustive(a, goals, cons, shared)
	if err != nil {
		t.Fatal(err)
	}
	assertRecommendationsIdentical(t, "shared-vs-fresh", fresh, cold)
	marginals := ev.Marginals().Size()
	if marginals == 0 {
		t.Fatal("cold run solved no availability marginal through the shared evaluator")
	}

	warm, err := Exhaustive(a, goals, cons, shared)
	if err != nil {
		t.Fatal(err)
	}
	assertRecommendationsIdentical(t, "warm-vs-cold", cold, warm)

	// The warm evaluator also serves a different planner over the same space.
	greedy, err := Greedy(a, goals, cons, shared)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Greedy(a, goals, cons, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertRecommendationsIdentical(t, "greedy-warm-vs-fresh", ref, greedy)
	if got := ev.Marginals().Size(); got != marginals {
		t.Errorf("warm searches grew the marginal cache from %d to %d", marginals, got)
	}
}

// TestSharedEvaluatorMismatchRejected pins the validation of
// Options.Evaluator: a foreign analysis or differing performability
// options must be refused, not silently produce wrong numbers.
func TestSharedEvaluatorMismatchRejected(t *testing.T) {
	a := workloadAnalysis(t, workload.EPWorkflow(5))
	other := workloadAnalysis(t, workload.OrderWorkflow(4))
	goals := Goals{MaxUnavailability: 1e-4}

	opts := DefaultOptions()
	ev, err := performability.NewEvaluator(other, opts.Performability)
	if err != nil {
		t.Fatal(err)
	}
	opts.Evaluator = ev
	if _, err := Greedy(a, goals, Constraints{}, opts); err == nil {
		t.Error("evaluator over a different analysis accepted")
	}

	opts = DefaultOptions()
	ev, err = performability.NewEvaluator(a, performability.Options{Policy: performability.Strict})
	if err != nil {
		t.Fatal(err)
	}
	opts.Evaluator = ev
	if _, err := Greedy(a, goals, Constraints{}, opts); err == nil {
		t.Error("evaluator with differing performability options accepted")
	}
}
