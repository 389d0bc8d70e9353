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
	// evaluator has reduced (one M/G/1 formula each): a term read from
	// the term table reduces none.
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
// joint state space is never enumerated. Two memos are shared across
// candidates: the per-type availability marginal cache
// (avail.MarginalCache) and the term table, each type's TypeTerm per
// replica count below tabulated (see Term).
//
// An Evaluator is safe for concurrent use.
type Evaluator struct {
	a         *perf.Analysis
	opts      Options
	marginals *avail.MarginalCache
	// terms[x][y] is type x's term at y replicas once computed. A term
	// depends only on (analysis, options, x, y), all fixed for the
	// evaluator's lifetime, so a slot is written at most once per value
	// and read without a lock.
	terms  [][tabulated]atomic.Pointer[TypeTerm]
	levels atomic.Uint64 // w_x(j) terms reduced so far
}

// tabulated bounds the replica counts whose terms the evaluator keeps:
// y ≥ tabulated is computed on every request, so the table holds at most
// k·tabulated terms.
const tabulated = 64

// NewEvaluator validates the options and returns an evaluator over the
// analysis with an empty marginal cache and term table.
func NewEvaluator(a *perf.Analysis, opts Options) (*Evaluator, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Evaluator{
		a: a, opts: opts, marginals: avail.NewMarginalCache(),
		terms: make([][tabulated]atomic.Pointer[TypeTerm], a.Env().K()),
	}, nil
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
// W^Y is one Term per server type, folded by Reduce.
func (e *Evaluator) EvaluateContext(ctx context.Context, cfg perf.Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := len(e.terms)
	if len(cfg.Replicas) != k {
		return nil, fmt.Errorf("avail: %d replication degrees for %d server types", len(cfg.Replicas), k)
	}
	vectors := make([]float64, 2*k) // W^Y and w^Y in one allocation
	res := &Result{
		Config:          cfg.Clone(),
		Waiting:         vectors[:k:k],
		FullUpWaiting:   vectors[k:],
		StatesEvaluated: 1,
	}
	// The terms live on the stack for every realistic k.
	var stack [8]TypeTerm
	terms := stack[:0]
	if k > len(stack) {
		terms = make([]TypeTerm, 0, k)
	}
	fullUp := 1.0 // Π_x π_x(Y_x)
	for x, y := range cfg.Replicas {
		t, err := e.Term(x, y)
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		fullUp *= t.FullUp
		res.FullUpWaiting[x] = t.FullUpWaiting
		if res.StatesEvaluated > math.MaxInt/t.Support {
			res.StatesEvaluated = math.MaxInt // saturate: only a size indication
		} else {
			res.StatesEvaluated *= t.Support
		}
	}
	res.Availability = Reduce(terms, res.Waiting)
	res.DegradationShare = 1 - fullUp
	return res, nil
}

// Term returns type x's term at y replicas and the model's own
// parameters: from the table when y < tabulated and the term has been
// computed, else from the marginal cache and TypeTerm. A hit takes no
// lock and allocates nothing. Errors are never stored, so a failing
// (x, y) fails the same way on every call.
func (e *Evaluator) Term(x, y int) (TypeTerm, error) {
	var slot *atomic.Pointer[TypeTerm]
	if 0 <= y && y < tabulated {
		slot = &e.terms[x][y]
		if t := slot.Load(); t != nil {
			return *t, nil
		}
	}
	st := e.a.Env().Type(x)
	p := avail.TypeParams{Replicas: y, FailureRate: st.FailureRate, RepairRate: st.RepairRate}
	// The marginal is the cache's shared vector: read-only here.
	pi, err := e.marginals.TypeMarginal(p, e.opts.Discipline)
	if err != nil {
		return TypeTerm{}, fmt.Errorf("avail: type %d: %w", x, err)
	}
	t, err := e.TypeTerm(x, pi, e.a.TypeLoad(x), st.MeanService, st.ServiceSecondMoment)
	if err != nil {
		return TypeTerm{}, err
	}
	e.levels.Add(uint64(t.Support))
	if slot != nil {
		stored := t
		slot.Store(&stored)
	}
	return t, nil
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
	// Up is 1 − π_x(0), Down is π_x(0) and FullUp is π_x(Y_x).
	Up, Down, FullUp float64
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
		Down:          pi[0],
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
