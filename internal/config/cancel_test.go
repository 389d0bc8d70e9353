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
// so the cancellation tests can sweep them uniformly.
func contextPlannerRuns(h *analysisHarness) []struct {
	name string
	run  func(context.Context, Options) (*Recommendation, error)
} {
	return []struct {
		name string
		run  func(context.Context, Options) (*Recommendation, error)
	}{
		{"greedy", func(ctx context.Context, o Options) (*Recommendation, error) {
			return GreedyContext(ctx, h.a, h.goals, Constraints{}, o)
		}},
		{"exhaustive", func(ctx context.Context, o Options) (*Recommendation, error) {
			return ExhaustiveContext(ctx, h.a, h.goals, Constraints{}, o)
		}},
		{"branch&bound", func(ctx context.Context, o Options) (*Recommendation, error) {
			return BranchAndBoundContext(ctx, h.a, h.goals, Constraints{}, o)
		}},
	}
}

type analysisHarness struct {
	a     *perf.Analysis
	goals Goals
}

// unfinishableHarness is a search that cannot finish: the seven-type
// plan-search system under a waiting goal no candidate in the default
// 64-per-type box meets. Exhaustive would assess all 64^7 ≈ 4.4e12
// candidates before reporting infeasibility, so a run that ignores its
// context fails by timeout instead of passing by luck; greedy and
// branch-and-bound end in an infeasible error, which is not
// context.Canceled either.
func unfinishableHarness(t *testing.T) *analysisHarness {
	t.Helper()
	h := &analysisHarness{
		a:     analysisIn(t, workload.ExtendedEnvironment(), workload.EPDistributed(25)),
		goals: Goals{MaxWaiting: 1e-300},
	}
	// Adding replicas never worsens waiting, so the box's top corner is
	// its best candidate: if it misses the goal, every candidate does.
	top := make([]int, h.a.Env().K())
	for x := range top {
		top[x] = defaultMaxReplicas
	}
	as, err := Assess(h.a, perf.Config{Replicas: top}, h.goals, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(top) < 5 || as.Feasible() {
		t.Fatalf("%d types, top corner feasible = %v: the search could finish", len(top), as.Feasible())
	}
	return h
}

// TestPlannersReturnCanceledImmediately pins the contract on an
// already-dead context: every planner returns context.Canceled without
// producing a recommendation.
func TestPlannersReturnCanceledImmediately(t *testing.T) {
	h := unfinishableHarness(t)
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
// evaluator) — and requires context.Canceled back promptly. Crucially,
// the interrupted run must leave the shared evaluator reusable: a
// follow-up greedy search under meetable goals over the same evaluator
// reproduces the fresh-evaluator result bit for bit.
func TestPlannersCancelMidSearch(t *testing.T) {
	h := unfinishableHarness(t)
	a := h.a
	goals := Goals{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}

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
