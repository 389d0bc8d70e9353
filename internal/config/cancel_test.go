package config

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/workload"
)

// contextPlannerRuns enumerates the context-aware planner entry points
// so the cancellation tests can sweep them uniformly. The annealing
// iteration budget is effectively unbounded: a run that ignores its
// context would take minutes, so a hung cancellation fails the test by
// timeout instead of passing by luck.
func contextPlannerRuns(a *analysisHarness) []struct {
	name string
	run  func(context.Context, Options) (*Recommendation, error)
} {
	goals := a.goals
	cons := a.cons
	return []struct {
		name string
		run  func(context.Context, Options) (*Recommendation, error)
	}{
		{"greedy", func(ctx context.Context, o Options) (*Recommendation, error) {
			return GreedyContext(ctx, a.a, goals, cons, o)
		}},
		{"exhaustive", func(ctx context.Context, o Options) (*Recommendation, error) {
			return ExhaustiveContext(ctx, a.a, goals, cons, o)
		}},
		{"branch&bound", func(ctx context.Context, o Options) (*Recommendation, error) {
			return BranchAndBoundContext(ctx, a.a, goals, cons, o)
		}},
		{"annealing", func(ctx context.Context, o Options) (*Recommendation, error) {
			return SimulatedAnnealingContext(ctx, a.a, goals, cons, o, AnnealingOptions{Seed: 7, Iterations: 100_000_000})
		}},
	}
}

type analysisHarness struct {
	a     *perf.Analysis
	goals Goals
	cons  Constraints
}

// TestPlannersReturnCanceledImmediately pins the contract on an
// already-dead context: every planner returns context.Canceled without
// producing a recommendation.
func TestPlannersReturnCanceledImmediately(t *testing.T) {
	h := &analysisHarness{
		a:     workloadAnalysis(t, workload.EPWorkflow(5)),
		goals: Goals{MaxWaiting: 0.002, MaxUnavailability: 1e-5},
		cons:  Constraints{MaxReplicas: []int{6, 6, 6}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range contextPlannerRuns(h) {
		rec, err := p.run(ctx, DefaultOptions())
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", p.name, err)
		}
		if rec != nil {
			t.Errorf("%s: returned a recommendation from a canceled search", p.name)
		}
	}
}

// countdownCtx is a context that reports cancellation after a fixed
// number of Err() polls — a deterministic way to cancel a planner
// mid-search regardless of how fast the machine assesses candidates.
// The planners and the evaluator poll Err() between units of work (they
// never select on Done), so the countdown lands inside the search by
// construction.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPlannersCancelMidSearch cancels each planner while its search is
// in flight — deterministically, on the poll inside the second
// candidate's evaluation (an assessment polls twice: engine, then
// evaluator; greedy finishes this search in a handful of candidates) —
// and requires context.Canceled back promptly. Crucially, the
// interrupted run must leave the shared evaluator reusable: the
// follow-up search over the same evaluator reproduces the
// fresh-evaluator result bit for bit.
func TestPlannersCancelMidSearch(t *testing.T) {
	a := workloadAnalysis(t, workload.EPWorkflow(5))
	goals := Goals{MaxWaiting: 0.002, MaxUnavailability: 1e-5}
	h := &analysisHarness{a: a, goals: goals, cons: Constraints{MaxReplicas: []int{6, 6, 6}}}

	fresh, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range contextPlannerRuns(h) {
		t.Run(p.name, func(t *testing.T) {
			opts := DefaultOptions()
			ev, err := performability.NewEvaluator(a, opts.Performability)
			if err != nil {
				t.Fatal(err)
			}
			opts.Evaluator = ev

			rec, err := p.run(newCountdownCtx(3), opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rec != nil {
				t.Fatal("canceled search returned a recommendation")
			}

			// The evaluator the canceled search used stays consistent:
			// a greedy run over it matches the fresh-evaluator result
			// exactly.
			after, err := Greedy(a, goals, Constraints{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertRecommendationsIdentical(t, p.name+" after cancel", fresh, after)
		})
	}
}

// TestAssessContextCanceled covers the single-candidate entry point.
func TestAssessContextCanceled(t *testing.T) {
	a := workloadAnalysis(t, workload.EPWorkflow(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AssessContext(ctx, a, perf.Config{Replicas: []int{3, 3, 4}}, Goals{MaxUnavailability: 1e-5}, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
