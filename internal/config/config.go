// Package config implements the configuration tool of Section 7: given
// performability and availability goals, it searches the space of
// replication vectors for a (near-)minimum-cost configuration that meets
// them. The paper's greedy heuristic (Section 7.2) is the primary
// algorithm; an exhaustive minimum-cost search serves as the optimality
// baseline the benchmarks compare against.
package config

import (
	"context"
	"fmt"
	"math"

	"performa/internal/avail"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/wfmserr"
)

// Goals are the administrator-specified targets of Section 7.1.
type Goals struct {
	// MaxWaiting is the tolerance threshold for the mean waiting time
	// of service requests (applied to every server type's W^Y entry).
	// Zero disables the performability goal.
	MaxWaiting float64
	// MaxUnavailability is the tolerance threshold for the WFMS
	// unavailability (e.g. 1e-5 ≈ 5.3 min/year). Zero disables the
	// availability goal.
	MaxUnavailability float64
	// PerTypeMaxWaiting optionally refines MaxWaiting per server type
	// (Section 7.1's server-type-specific goals); entries ≤ 0 fall
	// back to MaxWaiting.
	PerTypeMaxWaiting []float64
	// PerWorkflowMaxDelay optionally bounds, per workflow type, the
	// expected total queueing delay one instance accrues across all its
	// service requests (Σ_x r_{x,i}·W_x) — Section 7.1's
	// workflow-type-specific goal refinement. Entries ≤ 0 disable the
	// goal for that workflow; the slice length must match the analysis'
	// workflow count.
	PerWorkflowMaxDelay []float64
}

func (g Goals) validate(k int) error {
	if g.MaxWaiting < 0 || g.MaxUnavailability < 0 {
		return fmt.Errorf("config: goals must be nonnegative, got waiting %v, unavailability %v", g.MaxWaiting, g.MaxUnavailability)
	}
	if g.MaxUnavailability >= 1 {
		return fmt.Errorf("config: unavailability goal %v must be below 1", g.MaxUnavailability)
	}
	if g.MaxWaiting == 0 && g.MaxUnavailability == 0 && g.PerWorkflowMaxDelay == nil {
		return fmt.Errorf("config: no goal specified")
	}
	if g.PerTypeMaxWaiting != nil && len(g.PerTypeMaxWaiting) != k {
		return fmt.Errorf("config: %d per-type waiting goals for %d server types", len(g.PerTypeMaxWaiting), k)
	}
	return nil
}

// waitingLimit returns the effective waiting-time goal for type x, or
// +Inf when no goal applies.
func (g Goals) waitingLimit(x int) float64 {
	if g.PerTypeMaxWaiting != nil && x < len(g.PerTypeMaxWaiting) && g.PerTypeMaxWaiting[x] > 0 {
		return g.PerTypeMaxWaiting[x]
	}
	if g.MaxWaiting > 0 {
		return g.MaxWaiting
	}
	return math.Inf(1)
}

// Constraints bound the search space (Section 7.1's "specific
// constraints such as limiting or fixing the degree of replication of
// particular server types").
type Constraints struct {
	// MinReplicas gives per-type lower bounds; nil means 1 everywhere.
	MinReplicas []int
	// MaxReplicas gives per-type upper bounds; nil or zero entries mean
	// the default cap of 64.
	MaxReplicas []int
	// Fixed pins types to exact replication degrees; nil or negative
	// entries leave the type free.
	Fixed []int
	// StartFrom optionally warm-starts the greedy search at an existing
	// configuration — typically the currently deployed one, for
	// incremental re-planning after drift — instead of the constraint
	// floor. Entries are clamped into the [min, max] bounds. A
	// warm-started greedy may also remove replicas: once the candidate
	// is feasible it trims replicas whose removal keeps every goal met
	// (one per iteration, the cut that leaves the most goal headroom
	// first), so a drift that relaxed the load releases servers instead
	// of only ever growing. nil preserves the classic floor start, whose
	// result is unchanged. Exhaustive and branch-and-bound enumerate the
	// full space regardless and ignore this field.
	StartFrom []int
}

const defaultMaxReplicas = 64

func (c Constraints) bounds(k int) (lo, hi []int, err error) {
	lo = make([]int, k)
	hi = make([]int, k)
	for x := 0; x < k; x++ {
		lo[x] = 1
		hi[x] = defaultMaxReplicas
	}
	if c.MinReplicas != nil {
		if len(c.MinReplicas) != k {
			return nil, nil, fmt.Errorf("config: %d minimum replicas for %d server types", len(c.MinReplicas), k)
		}
		for x, m := range c.MinReplicas {
			if m < 0 {
				return nil, nil, fmt.Errorf("config: negative minimum replicas for type %d", x)
			}
			if m > lo[x] {
				lo[x] = m
			}
		}
	}
	if c.MaxReplicas != nil {
		if len(c.MaxReplicas) != k {
			return nil, nil, fmt.Errorf("config: %d maximum replicas for %d server types", len(c.MaxReplicas), k)
		}
		for x, m := range c.MaxReplicas {
			if m > 0 {
				hi[x] = m
			}
		}
	}
	if c.Fixed != nil {
		if len(c.Fixed) != k {
			return nil, nil, fmt.Errorf("config: %d fixed degrees for %d server types", len(c.Fixed), k)
		}
		for x, f := range c.Fixed {
			if f >= 0 {
				lo[x], hi[x] = f, f
			}
		}
	}
	for x := 0; x < k; x++ {
		if lo[x] > hi[x] {
			return nil, nil, fmt.Errorf("config: type %d has contradictory bounds [%d, %d]", x, lo[x], hi[x])
		}
	}
	return lo, hi, nil
}

// Options tune the evaluation and search.
type Options struct {
	// Performability configures the per-candidate evaluation. The
	// Strict saturation policy is usually unsatisfiable (every finite
	// configuration has reachable all-down states), so the tool
	// defaults to ExcludeDown together with the availability goal,
	// which is the decomposition Section 7.1 describes.
	Performability performability.Options
	// MaxIterations bounds the greedy loop; zero means 1000.
	MaxIterations int
	// Deprecated: Workers is ignored (every planner is sequential); it is
	// kept only because the frozen bench/ harness still sets it.
	Workers int
	// Evaluator optionally supplies a shared performability evaluator
	// (performability.NewEvaluator) so several searches over one
	// analysis share one availability-marginal cache. It must have been
	// built against the same analysis with the same Performability
	// options; the planners reject mismatches. nil builds a fresh
	// evaluator per search.
	Evaluator *performability.Evaluator
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1000
	}
	return o
}

// DefaultOptions returns the recommended evaluation options.
func DefaultOptions() Options {
	return Options{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	}
}

// Assessment records how one candidate fares against the goals.
type Assessment struct {
	Config         perf.Config
	Perf           *performability.Result
	Unavailability float64
	// WorkflowDelays[i] is the expected per-instance queueing delay of
	// workflow i under the candidate (populated when the goals carry
	// per-workflow limits).
	WorkflowDelays []float64
	PerfOK         bool
	AvailOK        bool
}

// Feasible reports whether both goals hold.
func (a *Assessment) Feasible() bool { return a.PerfOK && a.AvailOK }

// Step records one greedy iteration for the recommendation trace.
type Step struct {
	// Config is the candidate evaluated this iteration.
	Config perf.Config
	// MaxWaiting and Unavailability are the candidate's metrics.
	MaxWaiting     float64
	Unavailability float64
	// AddedType is the server type that received a replica after this
	// evaluation, or -1 when the candidate was accepted or a replica was
	// removed instead.
	AddedType int
	// RemovedType is the server type that lost a replica after this
	// evaluation (warm-started searches trim once feasible), or -1.
	RemovedType int
	// Reason explains the choice ("waiting goal", "availability goal",
	// or "cost reduction").
	Reason string
}

// PartialTrace carries the accumulated greedy trace on a typed
// budget_exceeded error (Detail["partial_trace"]), so callers can resume
// from where the search stopped or report the progress made. Its String
// keeps rendered error messages bounded — the full steps are reached by
// type-asserting the detail value.
type PartialTrace []Step

func (p PartialTrace) String() string {
	if len(p) == 0 {
		return "0 steps"
	}
	return fmt.Sprintf("%d steps, last at %v", len(p), p[len(p)-1].Config)
}

// Recommendation is the tool's output.
type Recommendation struct {
	// Config is the selected configuration.
	Config perf.Config
	// Cost is the total number of servers.
	Cost int
	// Assessment is the final candidate's evaluation.
	Assessment *Assessment
	// Trace records the greedy iterations (nil for Exhaustive).
	Trace []Step
	// Evaluations counts how many candidates were assessed.
	Evaluations int
}

// Assess evaluates one candidate configuration against the goals — the
// building block the searches below share, exported for callers (like
// wfmsd's reconfiguration controller and wfmsadvisor) that track a
// running system's compliance without searching.
func Assess(a *perf.Analysis, cfg perf.Config, goals Goals, opts Options) (*Assessment, error) {
	return AssessContext(context.Background(), a, cfg, goals, opts)
}

// AssessContext is Assess with cancellation: a done context returns
// ctx.Err().
func AssessContext(ctx context.Context, a *perf.Analysis, cfg perf.Config, goals Goals, opts Options) (*Assessment, error) {
	if err := goals.validate(a.Env().K()); err != nil {
		return nil, err
	}
	eng, err := newEngine(a, goals, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	return eng.assess(ctx, cfg.Replicas)
}

// Greedy runs the paper's heuristic (Section 7.2): starting from the
// minimal configuration, it repeatedly evaluates the candidate and adds
// one replica to the most critical server type — the type with the worst
// waiting-time violation when the performability goal is unmet, otherwise
// the type contributing most to unavailability — re-evaluating between
// additions so the configuration is never oversized for one criterion
// while the other already holds.
func Greedy(a *perf.Analysis, goals Goals, cons Constraints, opts Options) (*Recommendation, error) {
	return GreedyContext(context.Background(), a, goals, cons, opts)
}

// GreedyContext is Greedy with cancellation: a done context makes the
// search return ctx.Err() promptly, discarding any partial trace; a
// shared evaluator (Options.Evaluator) stays reusable.
//
// With Constraints.StartFrom set the search warm-starts at that
// configuration (clamped into the bounds) and, once the candidate is
// feasible, trims replicas the goals no longer need — see
// Constraints.StartFrom. An exhausted iteration budget returns a typed
// budget_exceeded error carrying the partial trace (Detail
// "partial_trace", a PartialTrace) and the best configuration reached
// (Detail "best_config"), so callers can resume via StartFrom — unless
// the incumbent is already feasible (a warm start caught mid-trim), in
// which case the feasible incumbent is returned instead of the error.
func GreedyContext(ctx context.Context, a *perf.Analysis, goals Goals, cons Constraints, opts Options) (*Recommendation, error) {
	k := a.Env().K()
	if err := goals.validate(k); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	lo, hi, err := cons.bounds(k)
	if err != nil {
		return nil, err
	}

	eng, err := newEngine(a, goals, opts)
	if err != nil {
		return nil, err
	}
	cfg := perf.Config{Replicas: append([]int(nil), lo...)}
	warmStart := cons.StartFrom != nil
	if warmStart {
		if len(cons.StartFrom) != k {
			return nil, fmt.Errorf("config: %d start-from replicas for %d server types", len(cons.StartFrom), k)
		}
		for x, v := range cons.StartFrom {
			if v > lo[x] {
				cfg.Replicas[x] = v
			}
			if cfg.Replicas[x] > hi[x] {
				cfg.Replicas[x] = hi[x]
			}
		}
	}
	rec := &Recommendation{}
	accept := func(as *Assessment, step Step) *Recommendation {
		rec.Trace = append(rec.Trace, step)
		rec.Config = cfg.Clone()
		rec.Cost = cfg.TotalServers()
		rec.Assessment = as
		return rec
	}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		as, err := eng.assess(ctx, cfg.Replicas)
		if err != nil {
			return nil, err
		}
		rec.Evaluations++
		step := Step{
			Config:         cfg.Clone(),
			MaxWaiting:     as.Perf.MaxWaiting(),
			Unavailability: as.Unavailability,
			AddedType:      -1,
			RemovedType:    -1,
		}
		if as.Feasible() {
			if !warmStart {
				return accept(as, step), nil
			}
			// Warm start: the candidate meets the goals, but the drift
			// that triggered the re-plan may have left it oversized. Trim
			// the replica whose removal keeps every goal met with the
			// most headroom; accept once no removal stays feasible.
			target, err := bestRemoval(ctx, eng, rec, goals, cfg.Replicas, lo)
			if err != nil {
				return nil, err
			}
			if target < 0 {
				return accept(as, step), nil
			}
			step.RemovedType = target
			step.Reason = "cost reduction"
			rec.Trace = append(rec.Trace, step)
			cfg.Replicas[target]--
			continue
		}

		var target int
		var reason string
		if !as.PerfOK {
			target = mostCriticalForWaiting(a, as, goals, cfg.Replicas, hi)
			reason = "waiting goal"
		} else {
			target = eng.mostCriticalForAvailability(cfg.Replicas, hi)
			reason = "availability goal"
		}
		if target < 0 {
			return nil, wfmserr.New(wfmserr.CodeInfeasible, "config",
				"goals unreachable within constraints at %v (max waiting %.4g, unavailability %.4g)",
				cfg, as.Perf.MaxWaiting(), as.Unavailability)
		}
		step.AddedType = target
		step.Reason = reason
		rec.Trace = append(rec.Trace, step)
		cfg.Replicas[target]++
	}
	if warmStart {
		// The budget ran out mid-trim: if the incumbent is feasible (every
		// removal step preserved feasibility), it is a valid — merely
		// possibly untrimmed — recommendation, strictly more useful than a
		// budget error. The assessment is memoized, so this costs nothing.
		if as, err := eng.assess(ctx, cfg.Replicas); err == nil && as.Feasible() {
			return accept(as, Step{
				Config:         cfg.Clone(),
				MaxWaiting:     as.Perf.MaxWaiting(),
				Unavailability: as.Unavailability,
				AddedType:      -1,
				RemovedType:    -1,
			}), nil
		}
	}
	budgetErr := wfmserr.New(wfmserr.CodeBudgetExceeded, "config",
		"greedy search exceeded its iteration budget").
		With("iterations", opts.MaxIterations).
		With("evaluations", rec.Evaluations).
		With("best_config", append([]int(nil), cfg.Replicas...))
	if len(rec.Trace) > 0 {
		budgetErr = budgetErr.With("partial_trace", PartialTrace(rec.Trace))
	}
	return nil, budgetErr
}

// bestRemoval picks the server type whose single-replica removal keeps
// the candidate feasible while leaving the most goal headroom — the
// largest remaining slack across the active goals — tie-broken by the
// lowest type index. It returns -1 when no removal stays feasible (or
// none is allowed by the lower bounds). Candidate assessments count
// toward rec.Evaluations like every other greedy evaluation.
func bestRemoval(ctx context.Context, eng *engine, rec *Recommendation, goals Goals, replicas, lo []int) (int, error) {
	best := -1
	bestSlack := 0.0
	y := append([]int(nil), replicas...)
	for x := range y {
		if y[x]-1 < lo[x] {
			continue
		}
		y[x]--
		as, err := eng.assess(ctx, y)
		y[x]++
		if err != nil {
			return -1, err
		}
		rec.Evaluations++
		if !as.Feasible() {
			continue
		}
		if slack := goalSlack(eng.a, as, goals); slack > bestSlack || best < 0 {
			bestSlack, best = slack, x
		}
	}
	return best, nil
}

// goalSlack is the minimum remaining headroom of an assessment across
// the active goals, as a fraction of each goal's limit: 0 means some
// goal is exactly at its limit, 1 means untouched. Only finite, set
// goals contribute.
func goalSlack(a *perf.Analysis, as *Assessment, goals Goals) float64 {
	slack := 1.0
	note := func(value, limit float64) {
		if limit <= 0 || math.IsInf(limit, 1) {
			return
		}
		s := 1 - value/limit
		if s < slack {
			slack = s
		}
	}
	for x, w := range as.Perf.Waiting {
		note(w, goals.waitingLimit(x))
	}
	note(as.Unavailability, goals.MaxUnavailability)
	if goals.PerWorkflowMaxDelay != nil && as.WorkflowDelays != nil {
		for i, d := range as.WorkflowDelays {
			if i < len(goals.PerWorkflowMaxDelay) {
				note(d, goals.PerWorkflowMaxDelay[i])
			}
		}
	}
	return slack
}

// mostCriticalForWaiting picks the server type with the largest relative
// waiting-time violation that can still grow. Saturated (+Inf) types rank
// first, tie-broken by utilization. Per-workflow delay violations add
// their per-type contributions r_{x,i}·W_x to the scores, so the type
// carrying most of a violating workflow's delay grows first.
func mostCriticalForWaiting(a *perf.Analysis, as *Assessment, goals Goals, replicas, hi []int) int {
	k := len(as.Perf.Waiting)
	wfScore := make([]float64, k)
	if goals.PerWorkflowMaxDelay != nil && as.WorkflowDelays != nil {
		terms := make([]float64, k)
		for i := range a.Models() {
			limit := goals.PerWorkflowMaxDelay[i]
			if limit <= 0 || as.WorkflowDelays[i] <= limit {
				continue
			}
			a.WorkflowDelay(i, as.Perf.Waiting, terms)
			for x, contribution := range terms {
				if math.IsInf(contribution, 1) {
					contribution = 1e18
				}
				wfScore[x] += contribution / limit
			}
		}
	}
	best := -1
	bestScore := math.Inf(-1)
	for x, w := range as.Perf.Waiting {
		if replicas[x] >= hi[x] {
			continue
		}
		limit := goals.waitingLimit(x)
		var score float64
		switch {
		case math.IsInf(w, 1):
			// Rank saturated types by how overloaded they are.
			score = 1e18 + as.Perf.FullUpWaiting[x]
			if math.IsInf(as.Perf.FullUpWaiting[x], 1) {
				score = 2e18
			}
		case math.IsInf(limit, 1):
			score = math.Inf(-1) // no per-type goal
		default:
			score = w / limit
		}
		if wfScore[x] > 0 {
			if math.IsInf(score, -1) {
				score = 0
			}
			score += wfScore[x]
		}
		if score > bestScore {
			bestScore, best = score, x
		}
	}
	if best >= 0 && math.IsInf(bestScore, -1) {
		return -1
	}
	return best
}

// mostCriticalForAvailability picks the growable server type whose
// complete failure is most likely, i.e. the largest P(X_x = 0). The
// candidate was just evaluated, so each π_x comes from the evaluator's
// marginal cache.
func (e *engine) mostCriticalForAvailability(replicas, hi []int) int {
	env := e.a.Env()
	discipline := e.ev.Options().Discipline
	best := -1
	bestDown := -1.0
	for x := 0; x < env.K(); x++ {
		if replicas[x] >= hi[x] {
			continue
		}
		st := env.Type(x)
		marginal, err := e.ev.Marginals().TypeMarginal(avail.TypeParams{
			Replicas:    replicas[x],
			FailureRate: st.FailureRate,
			RepairRate:  st.RepairRate,
		}, discipline)
		if err != nil {
			continue
		}
		if down := marginal[0]; down > bestDown {
			bestDown, best = down, x
		}
	}
	if bestDown <= 0 {
		// No growable type improves availability.
		return -1
	}
	return best
}

// Exhaustive finds the true minimum-cost feasible configuration by
// enumerating replication vectors in order of increasing total server
// count. It is exponential in the number of server types and exists as
// the optimality baseline for the greedy heuristic.
func Exhaustive(a *perf.Analysis, goals Goals, cons Constraints, opts Options) (*Recommendation, error) {
	return ExhaustiveContext(context.Background(), a, goals, cons, opts)
}

// ExhaustiveContext is Exhaustive with cancellation: a done context
// aborts the enumeration and returns ctx.Err().
func ExhaustiveContext(ctx context.Context, a *perf.Analysis, goals Goals, cons Constraints, opts Options) (*Recommendation, error) {
	k := a.Env().K()
	if err := goals.validate(k); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	lo, hi, err := cons.bounds(k)
	if err != nil {
		return nil, err
	}
	minTotal, maxTotal := 0, 0
	for x := 0; x < k; x++ {
		minTotal += lo[x]
		maxTotal += hi[x]
	}
	eng, err := newEngine(a, goals, opts)
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{}
	for total := minTotal; total <= maxTotal; total++ {
		var found *Assessment
		var ferr error
		enumerate(lo, hi, total, func(y []int) bool {
			as, err := eng.assess(ctx, y)
			if err != nil {
				ferr = err
				return false
			}
			rec.Evaluations++
			if as.Feasible() {
				found = as
				return false
			}
			return true
		})
		if ferr != nil {
			return nil, ferr
		}
		if found != nil {
			rec.Config = found.Config.Clone()
			rec.Cost = found.Config.TotalServers()
			rec.Assessment = found
			return rec, nil
		}
	}
	return nil, wfmserr.New(wfmserr.CodeInfeasible, "config",
		"no feasible configuration within constraints (searched totals %d..%d)", minTotal, maxTotal)
}

// enumerate calls fn for every vector y with lo ≤ y ≤ hi and Σy = total,
// stopping early when fn returns false.
func enumerate(lo, hi []int, total int, fn func([]int) bool) {
	y := make([]int, len(lo))
	var rec func(x, remaining int) bool
	rec = func(x, remaining int) bool {
		if x == len(lo)-1 {
			if remaining < lo[x] || remaining > hi[x] {
				return true
			}
			y[x] = remaining
			return fn(y)
		}
		// Bound the component so the rest stays feasible.
		restLo, restHi := 0, 0
		for j := x + 1; j < len(lo); j++ {
			restLo += lo[j]
			restHi += hi[j]
		}
		from := lo[x]
		if remaining-restHi > from {
			from = remaining - restHi
		}
		to := hi[x]
		if remaining-restLo < to {
			to = remaining - restLo
		}
		for v := from; v <= to; v++ {
			y[x] = v
			if !rec(x+1, remaining-v) {
				return false
			}
		}
		return true
	}
	if len(lo) > 0 {
		rec(0, total)
	}
}
