package config

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/wfmserr"
)

// engine is the shared assessment engine behind all four planners and
// the exported Assess: one performability evaluator plus a memo of
// whole-candidate assessments keyed by memoKey(Y). It is safe for
// concurrent use, so Exhaustive can fan candidates out over a worker
// pool while Greedy and BranchAndBound walk sequentially.
type engine struct {
	a     *perf.Analysis
	goals Goals
	opts  Options
	ev    *performability.Evaluator

	mu   sync.Mutex
	memo map[string]*Assessment
	// computed counts memo misses: candidates actually evaluated.
	computed atomic.Int64
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
	return &engine{
		a: a, goals: goals, opts: opts,
		ev:   ev,
		memo: make(map[string]*Assessment),
	}, nil
}

// memoKey returns a compact, unambiguous byte-string key for a
// replication vector: the uvarint concatenation of its components.
// Uvarint is a prefix code, so distinct vectors (of any arity) never
// collide.
func memoKey(y []int) string {
	buf := make([]byte, 0, 2*len(y))
	for _, v := range y {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return string(buf)
}

// assess evaluates the candidate replication vector y against the goals,
// memoized. Returned assessments are shared — treat them as read-only.
// A done context makes it return ctx.Err() promptly; the memo only ever
// stores completed assessments, so a canceled search leaves the engine
// consistent and reusable.
func (e *engine) assess(ctx context.Context, y []int) (*Assessment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := memoKey(y)
	e.mu.Lock()
	as, ok := e.memo[key]
	e.mu.Unlock()
	if ok {
		return as, nil
	}
	as, err := e.compute(ctx, perf.Config{Replicas: append([]int(nil), y...)})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.memo[key] = as
	e.mu.Unlock()
	return as, nil
}

// assessConfig evaluates a full configuration. Configurations with
// co-location or per-replica speeds bypass the memo (its key covers only
// the replication vector); the evaluator rejects them with the same
// error the sequential path produced.
func (e *engine) assessConfig(ctx context.Context, cfg perf.Config) (*Assessment, error) {
	if len(cfg.Colocated) > 0 || cfg.Speeds != nil {
		return e.compute(ctx, cfg)
	}
	return e.assess(ctx, cfg.Replicas)
}

// compute runs the performability model and checks the goals — the body
// of the former sequential assess().
func (e *engine) compute(ctx context.Context, cfg perf.Config) (*Assessment, error) {
	res, err := e.ev.EvaluateContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	e.computed.Add(1)
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
			r := e.a.WorkflowRequests(i)
			var d float64
			for x := range r {
				d += r[x] * res.Waiting[x]
			}
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

// assessContained is assess with panic containment for worker
// goroutines: a panic escaping the analytic stack inside a pool worker
// would kill the whole process (nothing above the goroutine can recover
// it), so it is converted into a typed internal error here and flows
// through the normal per-candidate error reporting.
func (e *engine) assessContained(ctx context.Context, y []int) (as *Assessment, err error) {
	defer func() {
		if p := recover(); p != nil {
			as, err = nil, wfmserr.New(wfmserr.CodeInternal, "config",
				"panic while assessing candidate %v: %v", y, p)
		}
	}()
	return e.assess(ctx, y)
}

// assessChunk evaluates a batch of candidates over a pool of workers and
// returns the per-candidate assessments in input order, plus the first
// error in input order (later candidates' errors are suppressed, as the
// sequential scan would never have reached them).
func (e *engine) assessChunk(ctx context.Context, ys [][]int, workers int) ([]*Assessment, error) {
	out := make([]*Assessment, len(ys))
	errs := make([]error, len(ys))
	if workers > len(ys) {
		workers = len(ys)
	}
	if workers <= 1 {
		for i, y := range ys {
			as, err := e.assess(ctx, y)
			if err != nil {
				return nil, err
			}
			out[i] = as
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ys) {
					return
				}
				out[i], errs[i] = e.assessContained(ctx, ys[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
