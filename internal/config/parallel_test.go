package config

import (
	"testing"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/workload"
)

// workloadAnalysis builds an analysis of the paper environment under the
// given built-in workflows — the real workloads the equivalence tests
// exercise, as opposed to the synthetic single-activity charts above.
func workloadAnalysis(t *testing.T, flows ...*spec.Workflow) *perf.Analysis {
	t.Helper()
	env := workload.PaperEnvironment()
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

// plannerRuns enumerates the four planners as closures over shared
// goals/constraints so the equivalence tests can sweep them uniformly.
func plannerRuns(a *perf.Analysis, goals Goals, cons Constraints) []struct {
	name string
	run  func(Options) (*Recommendation, error)
} {
	return []struct {
		name string
		run  func(Options) (*Recommendation, error)
	}{
		{"greedy", func(o Options) (*Recommendation, error) {
			return Greedy(a, goals, cons, o)
		}},
		{"exhaustive", func(o Options) (*Recommendation, error) {
			return Exhaustive(a, goals, cons, o)
		}},
		{"branch&bound", func(o Options) (*Recommendation, error) {
			return BranchAndBound(a, goals, cons, o)
		}},
		{"annealing", func(o Options) (*Recommendation, error) {
			return SimulatedAnnealing(a, goals, cons, o, AnnealingOptions{Seed: 7, Iterations: 500})
		}},
	}
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

// TestPlannersParallelEquivalence is the headline determinism guarantee:
// every planner returns a bit-identical recommendation whether its
// worker pools run sequentially or wide, on both the EP and the order
// workload.
func TestPlannersParallelEquivalence(t *testing.T) {
	cases := []struct {
		name string
		a    *perf.Analysis
	}{
		{"ep", workloadAnalysis(t, workload.EPWorkflow(5))},
		{"order", workloadAnalysis(t, workload.OrderWorkflow(4))},
	}
	goals := Goals{MaxWaiting: 0.002, MaxUnavailability: 1e-5}
	cons := Constraints{MaxReplicas: []int{6, 6, 6}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range plannerRuns(tc.a, goals, cons) {
				seq := DefaultOptions()
				seq.Workers = 1
				want, err := p.run(seq)
				if err != nil {
					t.Fatalf("%s sequential: %v", p.name, err)
				}
				for _, workers := range []int{2, 4} {
					par := DefaultOptions()
					par.Workers = workers
					got, err := p.run(par)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", p.name, workers, err)
					}
					assertRecommendationsIdentical(t, p.name, want, got)
				}
			}
		})
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

// TestAssessWorkerEquivalence covers the exported single-candidate
// entry point: Assess must be worker-count-invariant too.
func TestAssessWorkerEquivalence(t *testing.T) {
	a := workloadAnalysis(t, workload.EPWorkflow(5), workload.OrderWorkflow(3))
	goals := Goals{MaxWaiting: 0.002, MaxUnavailability: 1e-5}
	cfg := perf.Config{Replicas: []int{3, 3, 4}}

	seq := DefaultOptions()
	seq.Workers = 1
	want, err := Assess(a, cfg, goals, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultOptions()
	par.Workers = 4
	got, err := Assess(a, cfg, goals, par)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unavailability != want.Unavailability {
		t.Errorf("unavailability %v != %v", got.Unavailability, want.Unavailability)
	}
	if got.PerfOK != want.PerfOK || got.AvailOK != want.AvailOK {
		t.Errorf("feasibility (%v,%v) != (%v,%v)", got.PerfOK, got.AvailOK, want.PerfOK, want.AvailOK)
	}
	for x := range want.Perf.Waiting {
		if got.Perf.Waiting[x] != want.Perf.Waiting[x] {
			t.Errorf("W[%d] = %v, want %v (bit-identical)", x, got.Perf.Waiting[x], want.Perf.Waiting[x])
		}
	}
}
