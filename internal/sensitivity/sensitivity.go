// Package sensitivity computes finite-difference sensitivities of the
// performability metrics — the per-type waiting times W^Y (and the
// per-workflow delays they induce) and the unavailability — with
// respect to every model parameter: per-type failure rate λ_x, repair
// rate μ_x, service-time moments b_x and b_x^(2), per-workflow arrival
// rate ξ_t, and the replica counts Y_x themselves.
//
// Derivatives are central differences with an adaptive step: each side
// is evaluated on a perturbed copy of the analysis routed through an
// evaluator derived from the caller's warm one
// (performability.Evaluator.Derive), so the availability marginals of
// every unperturbed type are reused. When a side is infeasible — a
// negative rate, a second moment dipping below the squared mean — the
// difference falls back to one-sided, and the step shrinks before the
// parameter is declared unevaluable. Replica counts are discrete, so
// their "derivative" is a ±1 difference.
//
// The result is a table ranked by elasticity (relative metric change
// per relative parameter change), each entry carrying a human-readable
// attribution — the currency the reconfiguration advisories trade in.
package sensitivity

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
)

// Kind names one parameter family.
type Kind string

const (
	// FailureRate is λ_x, a server type's per-replica failure rate.
	FailureRate Kind = "failure_rate"
	// RepairRate is μ_x, a server type's per-replica repair rate.
	RepairRate Kind = "repair_rate"
	// MeanService is b_x, a server type's mean service time.
	MeanService Kind = "mean_service"
	// ServiceSecondMoment is b_x^(2), the second service-time moment.
	ServiceSecondMoment Kind = "service_second_moment"
	// ArrivalRate is ξ_t, a workflow type's arrival rate.
	ArrivalRate Kind = "arrival_rate"
	// Replicas is Y_x, a server type's replica count (discrete).
	Replicas Kind = "replicas"
)

// Options tunes the finite-difference computation.
type Options struct {
	// RelStep is the relative perturbation step h/θ; zero means 1e-3.
	// Parameters whose base value is zero are probed with an absolute
	// step of RelStep instead.
	RelStep float64
	// Workers bounds the parameter-level parallelism; zero means
	// min(NumCPU, 8), negative means sequential.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.RelStep <= 0 {
		o.RelStep = 1e-3
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Entry is the sensitivity of the metrics to one parameter.
type Entry struct {
	// Kind and Index identify the parameter: Index is the server-type
	// index x for per-type kinds and the workflow index t for arrival
	// rates.
	Kind  Kind `json:"kind"`
	Index int  `json:"index"`
	// Target is the server-type or workflow name.
	Target string `json:"target"`
	// Value is the parameter's base value (the replica count for
	// Kind == Replicas).
	Value float64 `json:"value"`
	// DMaxWaiting and DUnavailability are ∂(max_x W^Y_x)/∂θ and
	// ∂(1−A)/∂θ; for replicas they are per-replica differences.
	DMaxWaiting     float64 `json:"d_max_waiting"`
	DUnavailability float64 `json:"d_unavailability"`
	// DWorkflowDelays[t] is the derivative of workflow t's expected
	// per-instance queueing delay Σ_x r_{x,t}·W^Y_x.
	DWorkflowDelays []float64 `json:"d_workflow_delays,omitempty"`
	// WaitingElasticity and UnavailabilityElasticity are the
	// dimensionless (θ/metric)·∂metric/∂θ — percent metric change per
	// percent parameter change.
	WaitingElasticity        float64 `json:"waiting_elasticity"`
	UnavailabilityElasticity float64 `json:"unavailability_elasticity"`
	// Rank is the score the table is ordered by: the largest finite
	// absolute elasticity.
	Rank float64 `json:"rank"`
	// Method records how the derivative was obtained: "central",
	// "forward", "backward", "central_discrete", "forward_discrete",
	// or "failed" when no perturbation was evaluable.
	Method string `json:"method"`
	// Step is the final step size h (1 for discrete differences).
	Step float64 `json:"step"`
	// Attribution is the human-readable reading of the entry.
	Attribution string `json:"attribution"`
}

// Table is the full ranked sensitivity table for one configuration.
type Table struct {
	// Config is the replication vector the table was computed at.
	Config []int `json:"config"`
	// BaseMaxWaiting, BaseUnavailability, and BaseWorkflowDelays are
	// the unperturbed metrics the derivatives refer to.
	BaseMaxWaiting     float64   `json:"base_max_waiting"`
	BaseUnavailability float64   `json:"base_unavailability"`
	BaseWorkflowDelays []float64 `json:"base_workflow_delays"`
	// Entries is ranked worst-first by Rank.
	Entries []Entry `json:"entries"`
	// Summary names the dominant parameter per metric.
	Summary string `json:"summary"`
}

// point bundles the three metrics one evaluation yields.
type point struct {
	maxWaiting     float64
	unavailability float64
	delays         []float64
}

// paramSpec describes one continuous parameter: how to evaluate the
// metrics with the parameter set to θ.
type paramSpec struct {
	kind   Kind
	index  int
	target string
	value  float64
	eval   func(ctx context.Context, theta float64) (point, error)
}

// Compute builds the sensitivity table for cfg through the given
// evaluator, whose availability-marginal cache every perturbed
// evaluation shares.
func Compute(ctx context.Context, ev *performability.Evaluator, cfg perf.Config, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	a := ev.Analysis()
	env := a.Env()
	k := env.K()
	if len(cfg.Replicas) != k {
		return nil, fmt.Errorf("sensitivity: %d replica counts for %d server types", len(cfg.Replicas), k)
	}

	base, err := evalPoint(ctx, ev, a, cfg)
	if err != nil {
		return nil, err
	}

	specs := paramSpecs(ev, a, cfg)
	entries := make([]Entry, len(specs)+k)

	// Continuous parameters, fanned out over the worker pool. Each
	// entry's evaluations are independent; derived evaluators share the
	// concurrency-safe marginal cache.
	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Workers)
	for i, ps := range specs {
		wg.Add(1)
		go func(i int, ps paramSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			entries[i] = continuousEntry(ctx, ps, base, opts)
		}(i, ps)
	}
	// Replica counts, through the base evaluator itself (same model,
	// different Y).
	for x := 0; x < k; x++ {
		wg.Add(1)
		go func(x int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			entries[len(specs)+x] = replicaEntry(ctx, ev, a, cfg, x, base)
		}(x)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for i := range entries {
		finishEntry(&entries[i], base)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Rank > entries[j].Rank })

	t := &Table{
		Config:             append([]int(nil), cfg.Replicas...),
		BaseMaxWaiting:     base.maxWaiting,
		BaseUnavailability: base.unavailability,
		BaseWorkflowDelays: base.delays,
		Entries:            entries,
	}
	t.Summary = summarize(entries)
	return t, nil
}

// paramSpecs enumerates the continuous parameters of the analysis.
func paramSpecs(ev *performability.Evaluator, a *perf.Analysis, cfg perf.Config) []paramSpec {
	env := a.Env()
	var specs []paramSpec
	for x := 0; x < env.K(); x++ {
		st := env.Type(x)
		mut := func(set func(*spec.ServerType, float64)) func(context.Context, float64) (point, error) {
			return envEval(ev, a, cfg, x, set)
		}
		specs = append(specs,
			paramSpec{FailureRate, x, st.Name, st.FailureRate,
				mut(func(s *spec.ServerType, v float64) { s.FailureRate = v })},
			paramSpec{RepairRate, x, st.Name, st.RepairRate,
				mut(func(s *spec.ServerType, v float64) { s.RepairRate = v })},
			paramSpec{MeanService, x, st.Name, st.MeanService,
				mut(func(s *spec.ServerType, v float64) { s.MeanService = v })},
			paramSpec{ServiceSecondMoment, x, st.Name, st.ServiceSecondMoment,
				mut(func(s *spec.ServerType, v float64) { s.ServiceSecondMoment = v })},
		)
	}
	for t, m := range a.Models() {
		specs = append(specs, paramSpec{ArrivalRate, t, m.Workflow.Name, m.Workflow.ArrivalRate,
			arrivalEval(ev, a, cfg, t)})
	}
	return specs
}

// envEval evaluates the metrics with one server-type field set to θ.
// The perturbed environment revalidates, so infeasible values (negative
// rates, a second moment below the squared mean) surface as errors the
// adaptive stepping treats as a missing side.
func envEval(ev *performability.Evaluator, a *perf.Analysis, cfg perf.Config, x int, set func(*spec.ServerType, float64)) func(context.Context, float64) (point, error) {
	return func(ctx context.Context, theta float64) (point, error) {
		types := a.Env().Types()
		set(&types[x], theta)
		env2, err := spec.NewEnvironment(types...)
		if err != nil {
			return point{}, err
		}
		a2, err := perf.NewAnalysis(env2, a.Models())
		if err != nil {
			return point{}, err
		}
		ev2, err := ev.Derive(a2)
		if err != nil {
			return point{}, err
		}
		return evalPoint(ctx, ev2, a2, cfg)
	}
}

// arrivalEval evaluates the metrics with workflow t's arrival rate set
// to θ. The model is shallow-copied around a cloned workflow — the
// chain, load matrix, and expected requests do not depend on ξ_t.
func arrivalEval(ev *performability.Evaluator, a *perf.Analysis, cfg perf.Config, t int) func(context.Context, float64) (point, error) {
	return func(ctx context.Context, theta float64) (point, error) {
		if theta < 0 {
			return point{}, fmt.Errorf("sensitivity: negative arrival rate %v", theta)
		}
		models := append([]*spec.Model(nil), a.Models()...)
		m2 := *models[t]
		w2 := m2.Workflow.Clone()
		w2.ArrivalRate = theta
		m2.Workflow = w2
		models[t] = &m2
		a2, err := perf.NewAnalysis(a.Env(), models)
		if err != nil {
			return point{}, err
		}
		ev2, err := ev.Derive(a2)
		if err != nil {
			return point{}, err
		}
		return evalPoint(ctx, ev2, a2, cfg)
	}
}

// evalPoint runs one evaluation and reduces it to the three metrics.
func evalPoint(ctx context.Context, ev *performability.Evaluator, a *perf.Analysis, cfg perf.Config) (point, error) {
	res, err := ev.EvaluateContext(ctx, cfg)
	if err != nil {
		return point{}, err
	}
	p := point{
		maxWaiting:     res.MaxWaiting(),
		unavailability: 1 - res.Availability,
		delays:         make([]float64, len(a.Models())),
	}
	for i := range a.Models() {
		r := a.WorkflowRequests(i)
		var d float64
		for x := range r {
			d += r[x] * res.Waiting[x]
		}
		p.delays[i] = d
	}
	return p, nil
}

// continuousEntry computes one central-difference entry with adaptive
// stepping: shrink the step (÷4, up to 3 times) while neither side is
// evaluable, fall back to a one-sided difference when exactly one is.
func continuousEntry(ctx context.Context, ps paramSpec, base point, opts Options) Entry {
	e := Entry{Kind: ps.kind, Index: ps.index, Target: ps.target, Value: ps.value, Method: "failed"}
	h := opts.RelStep * math.Abs(ps.value)
	if h == 0 {
		h = opts.RelStep
	}
	for try := 0; try < 4; try++ {
		if ctx.Err() != nil {
			return e
		}
		plus, errP := ps.eval(ctx, ps.value+h)
		var minus point
		errM := fmt.Errorf("sensitivity: negative parameter")
		if ps.value-h >= 0 {
			minus, errM = ps.eval(ctx, ps.value-h)
		}
		switch {
		case errP == nil && errM == nil:
			e.Method, e.Step = "central", h
			e.DMaxWaiting, e.DUnavailability, e.DWorkflowDelays = diff(plus, minus, 2*h)
			return e
		case errP == nil:
			e.Method, e.Step = "forward", h
			e.DMaxWaiting, e.DUnavailability, e.DWorkflowDelays = diff(plus, base, h)
			return e
		case errM == nil:
			e.Method, e.Step = "backward", h
			e.DMaxWaiting, e.DUnavailability, e.DWorkflowDelays = diff(base, minus, h)
			return e
		}
		h /= 4
	}
	return e
}

// replicaEntry computes the discrete ±1 difference for Y_x.
func replicaEntry(ctx context.Context, ev *performability.Evaluator, a *perf.Analysis, cfg perf.Config, x int, base point) Entry {
	y := cfg.Replicas[x]
	e := Entry{Kind: Replicas, Index: x, Target: a.Env().Type(x).Name, Value: float64(y), Method: "failed", Step: 1}
	up := cfg.Clone()
	up.Replicas[x] = y + 1
	plus, errP := evalPoint(ctx, ev, a, up)
	if errP != nil {
		return e
	}
	if y > 1 {
		down := cfg.Clone()
		down.Replicas[x] = y - 1
		if minus, errM := evalPoint(ctx, ev, a, down); errM == nil {
			e.Method = "central_discrete"
			e.DMaxWaiting, e.DUnavailability, e.DWorkflowDelays = diff(plus, minus, 2)
			return e
		}
	}
	e.Method = "forward_discrete"
	e.DMaxWaiting, e.DUnavailability, e.DWorkflowDelays = diff(plus, base, 1)
	return e
}

// diff is the per-metric difference quotient (hi − lo)/denom.
func diff(hi, lo point, denom float64) (dW, dU float64, dD []float64) {
	dW = (hi.maxWaiting - lo.maxWaiting) / denom
	dU = (hi.unavailability - lo.unavailability) / denom
	dD = make([]float64, len(hi.delays))
	for i := range hi.delays {
		dD[i] = (hi.delays[i] - lo.delays[i]) / denom
	}
	return dW, dU, dD
}

// finishEntry derives elasticities, rank, and attribution from the raw
// derivatives.
func finishEntry(e *Entry, base point) {
	e.WaitingElasticity = elasticity(e.Value, e.DMaxWaiting, base.maxWaiting)
	e.UnavailabilityElasticity = elasticity(e.Value, e.DUnavailability, base.unavailability)
	for _, v := range []float64{math.Abs(e.WaitingElasticity), math.Abs(e.UnavailabilityElasticity)} {
		if !math.IsNaN(v) && !math.IsInf(v, 0) && v > e.Rank {
			e.Rank = v
		}
	}
	e.Attribution = attribution(*e)
}

// elasticity is (θ/metric)·∂metric/∂θ, NaN when undefined.
func elasticity(value, deriv, metric float64) float64 {
	if metric == 0 || math.IsInf(metric, 0) {
		return math.NaN()
	}
	return value / metric * deriv
}

// describe names a parameter for humans: `server type 2 ("app")'s
// service second moment`.
func describe(e Entry) string {
	noun := map[Kind]string{
		FailureRate:         "failure rate",
		RepairRate:          "repair rate",
		MeanService:         "mean service time",
		ServiceSecondMoment: "service second moment",
		ArrivalRate:         "arrival rate",
		Replicas:            "replica count",
	}[e.Kind]
	if e.Kind == ArrivalRate {
		return fmt.Sprintf("workflow %q's %s", e.Target, noun)
	}
	return fmt.Sprintf("server type %d (%q)'s %s", e.Index, e.Target, noun)
}

// attribution renders one entry's dominant effect.
func attribution(e Entry) string {
	if e.Method == "failed" {
		return fmt.Sprintf("%s could not be perturbed within the model's validity bounds", describe(e))
	}
	we, ue := e.WaitingElasticity, e.UnavailabilityElasticity
	if math.IsNaN(we) && math.IsNaN(ue) {
		return fmt.Sprintf("%s has no measurable effect on the metrics", describe(e))
	}
	if math.IsNaN(ue) || math.Abs(we) >= math.Abs(ue) {
		return fmt.Sprintf("a 1%% increase in %s changes the maximum waiting time by %+.3g%%", describe(e), we)
	}
	return fmt.Sprintf("a 1%% increase in %s changes the unavailability by %+.3g%%", describe(e), ue)
}

// summarize names the dominant parameter for each metric.
func summarize(entries []Entry) string {
	var topW, topU *Entry
	for i := range entries {
		e := &entries[i]
		if v := math.Abs(e.WaitingElasticity); !math.IsNaN(v) && !math.IsInf(v, 0) {
			if topW == nil || v > math.Abs(topW.WaitingElasticity) {
				topW = e
			}
		}
		if v := math.Abs(e.UnavailabilityElasticity); !math.IsNaN(v) && !math.IsInf(v, 0) {
			if topU == nil || v > math.Abs(topU.UnavailabilityElasticity) {
				topU = e
			}
		}
	}
	var parts []string
	if topW != nil {
		parts = append(parts, fmt.Sprintf("waiting time is dominated by %s (elasticity %+.3g)",
			describe(*topW), topW.WaitingElasticity))
	}
	if topU != nil {
		parts = append(parts, fmt.Sprintf("unavailability is dominated by %s (elasticity %+.3g)",
			describe(*topU), topU.UnavailabilityElasticity))
	}
	if len(parts) == 0 {
		return "no parameter has a measurable effect on the metrics"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "; " + p
	}
	return out
}
