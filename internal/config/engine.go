package config

import (
	"context"
	"fmt"

	"performa/internal/perf"
	"performa/internal/performability"
)

// engine is the assessment engine behind the three planners and the
// exported Assess: one performability evaluator and the goals. A
// candidate's per-type terms are reads of the evaluator's term table,
// so judging it again costs k reads and Reduce, and the engine keeps no
// cache of its own. Every search builds its own engine and walks it
// sequentially.
type engine struct {
	a     *perf.Analysis
	goals Goals
	ev    *performability.Evaluator
}

// newEngine builds the engine, creating a fresh evaluator or validating
// the caller-supplied shared one.
func newEngine(a *perf.Analysis, goals Goals, opts Options) (*engine, error) {
	ev := opts.Evaluator
	if ev == nil {
		var err error
		ev, err = performability.NewEvaluator(a, opts.Performability)
		if err != nil {
			return nil, err
		}
	} else {
		if ev.Analysis() != a {
			return nil, fmt.Errorf("config: shared evaluator was built against a different analysis")
		}
		if ev.Options() != opts.Performability {
			return nil, fmt.Errorf("config: shared evaluator options %+v differ from planner options %+v", ev.Options(), opts.Performability)
		}
	}
	return &engine{a: a, goals: goals, ev: ev}, nil
}

// assess runs the performability model on the candidate replication
// vector y and checks the goals, returning the caller's own assessment.
// The evaluator copies y into the result, so the search may go on
// mutating it. A done context makes it return ctx.Err() promptly.
func (e *engine) assess(ctx context.Context, y []int) (*Assessment, error) {
	res, err := e.ev.EvaluateContext(ctx, perf.Config{Replicas: y})
	if err != nil {
		return nil, err
	}
	out := &Assessment{
		Config:         res.Config,
		Perf:           res,
		Unavailability: 1 - res.Availability,
	}
	out.PerfOK = true
	for x, w := range res.Waiting {
		if w > e.goals.waitingLimit(x) {
			out.PerfOK = false
			break
		}
	}
	if e.goals.PerWorkflowMaxDelay != nil {
		models := e.a.Models()
		if len(e.goals.PerWorkflowMaxDelay) != len(models) {
			return nil, fmt.Errorf("config: %d per-workflow delay goals for %d workflows", len(e.goals.PerWorkflowMaxDelay), len(models))
		}
		out.WorkflowDelays = make([]float64, len(models))
		for i := range models {
			d := e.a.WorkflowDelay(i, res.Waiting, nil)
			out.WorkflowDelays[i] = d
			if limit := e.goals.PerWorkflowMaxDelay[i]; limit > 0 && d > limit {
				out.PerfOK = false
			}
		}
	}
	if e.goals.MaxUnavailability > 0 {
		out.AvailOK = out.Unavailability <= e.goals.MaxUnavailability
	} else {
		out.AvailOK = true
	}
	return out, nil
}
