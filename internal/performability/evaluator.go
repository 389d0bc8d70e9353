package performability

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"performa/internal/avail"
	"performa/internal/linalg"
	"performa/internal/perf"
	"performa/internal/wfmserr"
)

// CacheStats is the evaluator's work counter, in the shape the
// benchmark harness reads.
//
// Deprecated: nothing is cached per system state any more; the type
// stays until bench/ stops reading it (ROADMAP, benchmark follow-up).
type CacheStats struct {
	// Hits is always 0: there is no degraded-state cache to hit.
	//
	// Deprecated: constant.
	Hits uint64
	// Misses is the number of per-type level waiting times w_x(j) the
	// evaluator has reduced (one M/G/1 formula each).
	Misses uint64
}

// Sub returns the component-wise difference s − t (for delta reporting
// against an earlier snapshot).
func (s CacheStats) Sub(t CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - t.Hits, Misses: s.Misses - t.Misses}
}

// Evaluator evaluates the performability of candidate configurations
// over one analysis. Both factors of the Section 6 reward sum
// W^Y = Σ_i π_i · w^i are separable by server type — failures and
// repairs never couple types, so π_i is a product of per-type marginals,
// and the waiting time of type x in state i depends on X_x alone — so
// the sum is reduced type by type in O(Σ_x Y_x) M/G/1 formulas and the
// joint state space is never enumerated. The only memo is the per-type
// availability marginal cache (avail.MarginalCache), shared across
// candidates.
//
// An Evaluator is safe for concurrent use.
type Evaluator struct {
	a         *perf.Analysis
	opts      Options
	marginals *avail.MarginalCache
	levels    atomic.Uint64 // w_x(j) terms reduced so far
}

// NewEvaluator validates the options and returns an evaluator over the
// analysis with an empty marginal cache.
func NewEvaluator(a *perf.Analysis, opts Options) (*Evaluator, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Evaluator{a: a, opts: opts, marginals: avail.NewMarginalCache()}, nil
}

// Analysis returns the analysis the evaluator was built against.
func (e *Evaluator) Analysis() *perf.Analysis { return e.a }

// Options returns the evaluation options the evaluator was built with.
func (e *Evaluator) Options() Options { return e.opts }

// Marginals returns the evaluator's per-type availability marginal
// cache, so long-lived owners (the advisory server) can report its size.
func (e *Evaluator) Marginals() *avail.MarginalCache { return e.marginals }

// CachedStates is always 0.
//
// Deprecated: no per-state vectors are memoized; kept for bench/.
func (e *Evaluator) CachedStates() int { return 0 }

// Stats returns a snapshot of the work counter.
//
// Deprecated: see CacheStats; kept for bench/.
func (e *Evaluator) Stats() CacheStats {
	return CacheStats{Misses: e.levels.Load()}
}

// Evaluate computes W^Y for one candidate.
func (e *Evaluator) Evaluate(cfg perf.Config) (*Result, error) {
	return e.EvaluateContext(context.Background(), cfg)
}

// EvaluateContext is Evaluate with cancellation: a done context returns
// ctx.Err() and no result. The evaluator keeps no per-evaluation state,
// so a canceled call cannot affect later ones.
//
// W^Y is one TypeTerm per server type, folded by Reduce.
func (e *Evaluator) EvaluateContext(ctx context.Context, cfg perf.Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env := e.a.Env()
	params, err := avail.ParamsFromEnvironment(env, cfg.Replicas)
	if err != nil {
		return nil, err
	}

	k := len(params)
	res := &Result{
		Config:          cfg.Clone(),
		Waiting:         make([]float64, k),
		FullUpWaiting:   make([]float64, k),
		StatesEvaluated: 1,
	}
	// The terms live on the stack for every realistic k.
	var stack [8]TypeTerm
	terms := stack[:0]
	if k > len(stack) {
		terms = make([]TypeTerm, 0, k)
	}
	fullUp := 1.0 // Π_x π_x(Y_x)
	var levels uint64
	for x, p := range params {
		// The marginal is the cache's shared vector: read-only here.
		pi, err := e.marginals.TypeMarginal(p, e.opts.Discipline)
		if err != nil {
			return nil, fmt.Errorf("avail: type %d: %w", x, err)
		}
		st := env.Type(x)
		t, err := e.TypeTerm(x, pi, e.a.TypeLoad(x), st.MeanService, st.ServiceSecondMoment)
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		fullUp *= t.FullUp
		res.FullUpWaiting[x] = t.FullUpWaiting
		levels += uint64(t.Support)
		if res.StatesEvaluated > math.MaxInt/t.Support {
			res.StatesEvaluated = math.MaxInt // saturate: only a size indication
		} else {
			res.StatesEvaluated *= t.Support
		}
	}
	res.Availability = Reduce(terms, res.Waiting)
	res.DegradationShare = 1 - fullUp
	e.levels.Add(levels)
	return res, nil
}

// Reduce folds one TypeTerm per server type into W^Y, written to
// waiting, and returns the availability Π_x (1 − π_x(0)). ExcludeDown
// conditions on every type being operational; that event is a product
// of per-type events, so the other types' factors cancel — unless some
// type has no operational level, in which case no operational state
// exists and every entry of W^Y is +Inf.
func Reduce(terms []TypeTerm, waiting []float64) (availability float64) {
	availability, operational := 1.0, true
	for x := range terms {
		availability *= terms[x].Up
		operational = operational && terms[x].Operational
	}
	for x := range terms {
		waiting[x] = terms[x].Waiting
		if !operational {
			waiting[x] = math.Inf(1)
		}
	}
	return availability
}

// TypeTerm is one server type's factor of the Section 6 reward sum: all
// a configuration's metrics need of the type at one replica count.
type TypeTerm struct {
	// Waiting is W_x under the evaluator's saturation policy.
	Waiting float64
	// FullUpWaiting is w_x(Y_x), the failure-free waiting time.
	FullUpWaiting float64
	// Up is 1 − π_x(0) and FullUp is π_x(Y_x).
	Up, FullUp float64
	// Support is the number of levels with positive mass.
	Support int
	// Operational is false only under ExcludeDown, when no level with
	// mass has a finite waiting time (Waiting is then 0, not W_x).
	Operational bool
}

// TypeTerm reduces type x's factor from its availability marginal pi
// over j = 0..Y_x available replicas, its request arrival rate l and its
// service moments b, b2 (x only names the type in the error). With level
// waiting times w_x(j) (levels with zero mass are skipped, so 0·Inf
// never forms):
//
//	Strict       W_x = Σ_j π_x(j)·w_x(j)            (+Inf propagates)
//	Penalty      the same sum with PenaltyValue for +Inf
//	ExcludeDown  W_x = Σ_{j ok} π_x(j)·w_x(j) / P_x(ok),  ok = {j : w_x(j) finite}
func (e *Evaluator) TypeTerm(x int, pi linalg.Vector, l, b, b2 float64) (TypeTerm, error) {
	y := len(pi) - 1
	t := TypeTerm{
		FullUpWaiting: perf.LevelWaiting(l, y, b, b2),
		Up:            1 - pi[0],
		FullUp:        pi[y],
		Operational:   true,
	}
	var sum, ok float64
	for j, pj := range pi {
		if pj == 0 {
			continue
		}
		t.Support++
		w := perf.LevelWaiting(l, j, b, b2)
		if math.IsInf(w, 1) {
			switch e.opts.Policy {
			case ExcludeDown:
				continue
			case Penalty:
				w = e.opts.PenaltyValue
			}
		}
		ok += pj
		sum += pj * w
	}
	if t.Support == 0 {
		return t, wfmserr.New(wfmserr.CodeInvalidModel, "performability",
			"type %d marginal has no positive mass", x)
	}
	if e.opts.Policy == ExcludeDown {
		if ok == 0 {
			t.Operational = false
		} else {
			sum /= ok
		}
	}
	t.Waiting = sum
	return t, nil
}
