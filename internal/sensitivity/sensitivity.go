// Package sensitivity computes finite-difference sensitivities of the
// performability metrics — the per-type waiting times W^Y (and the
// per-workflow delays they induce) and the unavailability — with
// respect to every model parameter: per-type failure rate λ_x, repair
// rate μ_x, service-time moments b_x and b_x^(2), per-workflow arrival
// rate ξ_t, and the replica counts Y_x themselves.
//
// Derivatives are central differences with an adaptive step. The
// metrics are separable by server type (performability.TypeTerm), so a
// side recomputes only the terms its parameter reaches — one for a
// per-type parameter or a replica count, all k against the cached
// marginals for an arrival rate — and re-reduces them in the
// evaluator's order; nothing is rebuilt. When a side is infeasible — a
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"performa/internal/avail"
	"performa/internal/linalg"
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

// relStep is the relative perturbation step h/θ of the continuous
// parameters. Parameters whose base value is zero are probed with an
// absolute step of relStep instead.
const relStep = 1e-3

// Options tunes nothing today: the step is relStep and entries are
// computed one after another.
type Options struct {
	// Workers is ignored: entries are computed one after another.
	//
	// Deprecated: accepted until bench/ stops setting it (ROADMAP item 1).
	Workers int
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

// separable is one table's base point in the evaluator's separable
// form, one performability.TypeTerm per server type: a perturbed point
// recomputes the terms its parameter reaches and re-reduces the rest.
type separable struct {
	ev  *performability.Evaluator
	a   *perf.Analysis
	cfg []int
	// terms are the base terms; a side that changes one type swaps its
	// term in, reduces, and puts the base term back.
	terms []performability.TypeTerm
	// side, loads and waiting are scratch: the k terms and the loads l_x
	// of an arrival-rate side, and W^Y of the point being reduced.
	side    []performability.TypeTerm
	loads   linalg.Vector
	waiting []float64
	// base is the unperturbed point; plus and minus hold the two sides of
	// the entry being computed.
	base, plus, minus point
}

// Compute builds the sensitivity table for cfg through the given
// evaluator. Only marginals of the model's own (type, replicas) pairs —
// the base configuration and its ±1 neighbours — enter the evaluator's
// marginal cache.
func Compute(ctx context.Context, ev *performability.Evaluator, cfg perf.Config, opts Options) (*Table, error) {
	a := ev.Analysis()
	env := a.Env()
	k, flows := env.K(), len(a.Models())
	if len(cfg.Replicas) != k {
		return nil, fmt.Errorf("sensitivity: %d replica counts for %d server types", len(cfg.Replicas), k)
	}

	// The base point goes through the evaluator proper, so everything it
	// rejects (a negative or oversized replica count) rejects the table.
	if _, err := ev.EvaluateContext(ctx, cfg); err != nil {
		return nil, err
	}
	s := &separable{
		ev: ev, a: a, cfg: cfg.Replicas,
		terms:   make([]performability.TypeTerm, k),
		side:    make([]performability.TypeTerm, k),
		loads:   linalg.NewVector(k),
		waiting: make([]float64, k),
	}
	s.base.delays, s.plus.delays, s.minus.delays = make([]float64, flows), make([]float64, flows), make([]float64, flows)
	for x := range s.terms {
		var err error
		if s.terms[x], err = s.term(x, cfg.Replicas[x], env.Type(x), a.TypeLoad(x)); err != nil {
			return nil, err
		}
	}
	s.reduce(s.terms, &s.base)

	entries := make([]Entry, 0, 5*k+flows)
	for x := 0; x < k; x++ {
		st := env.Type(x)
		entries = append(entries,
			Entry{Kind: FailureRate, Index: x, Target: st.Name, Value: st.FailureRate},
			Entry{Kind: RepairRate, Index: x, Target: st.Name, Value: st.RepairRate},
			Entry{Kind: MeanService, Index: x, Target: st.Name, Value: st.MeanService},
			Entry{Kind: ServiceSecondMoment, Index: x, Target: st.Name, Value: st.ServiceSecondMoment})
	}
	for t, m := range a.Models() {
		entries = append(entries, Entry{Kind: ArrivalRate, Index: t, Target: m.Workflow.Name, Value: m.Workflow.ArrivalRate})
	}
	for x := 0; x < k; x++ {
		entries = append(entries, Entry{Kind: Replicas, Index: x, Target: env.Type(x).Name, Value: float64(cfg.Replicas[x])})
	}

	for i := range entries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := &entries[i]
		e.Method = "failed"
		if e.Kind == Replicas {
			s.replicaEntry(e)
		} else {
			s.continuousEntry(e)
		}
		finishEntry(e, s.base)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slices.SortStableFunc(entries, func(a, b Entry) int { return cmp.Compare(b.Rank, a.Rank) })

	t := &Table{
		Config:             append([]int(nil), cfg.Replicas...),
		BaseMaxWaiting:     s.base.maxWaiting,
		BaseUnavailability: s.base.unavailability,
		BaseWorkflowDelays: s.base.delays,
		Entries:            entries,
	}
	t.Summary = summarize(entries)
	return t, nil
}

// term evaluates type x's factor at y replicas, parameters st and load
// l. The marginal of the model's own (λ_x, μ_x) comes from the
// evaluator's cache, which planners ask for the same (type, replicas)
// pair again; a perturbed rate pair is computed directly and dropped,
// since no later lookup could carry those float values.
func (s *separable) term(x, y int, st spec.ServerType, l float64) (performability.TypeTerm, error) {
	opts := s.ev.Options()
	p := avail.TypeParams{Replicas: y, FailureRate: st.FailureRate, RepairRate: st.RepairRate}
	var pi linalg.Vector
	var err error
	if own := s.a.Env().Type(x); st.FailureRate == own.FailureRate && st.RepairRate == own.RepairRate {
		pi, err = s.ev.Marginals().TypeMarginal(p, opts.Discipline)
	} else {
		pi, err = avail.TypeMarginal(p, opts.Discipline)
	}
	if err != nil {
		return performability.TypeTerm{}, fmt.Errorf("avail: type %d: %w", x, err)
	}
	return s.ev.TypeTerm(x, pi, l, st.MeanService, st.ServiceSecondMoment)
}

// reduce folds k terms into the three metrics through the evaluator's
// own fold (performability.Reduce) and delay sum (WorkflowDelay).
func (s *separable) reduce(terms []performability.TypeTerm, p *point) {
	p.unavailability = 1 - performability.Reduce(terms, s.waiting)
	p.maxWaiting = linalg.Vector(s.waiting).Max()
	for i := range p.delays {
		p.delays[i] = s.a.WorkflowDelay(i, s.waiting, nil)
	}
}

// typeSide evaluates the point with type x alone changed, to y replicas
// and parameters st.
func (s *separable) typeSide(x, y int, st spec.ServerType, p *point) error {
	t, err := s.term(x, y, st, s.a.TypeLoad(x))
	if err != nil {
		return err
	}
	own := s.terms[x]
	s.terms[x] = t
	s.reduce(s.terms, p)
	s.terms[x] = own
	return nil
}

// eval evaluates the point with e's continuous parameter set to θ. A
// perturbed server type passes spec's own validation first, so
// infeasible values (negative rates, a second moment below the squared
// mean) surface as errors the adaptive stepping treats as a missing
// side. An arrival rate changes every load — re-accumulated in
// perf.NewAnalysis's order — and no marginal.
func (s *separable) eval(e *Entry, theta float64, p *point) error {
	if e.Kind == ArrivalRate {
		if theta < 0 {
			return fmt.Errorf("sensitivity: negative arrival rate %v", theta)
		}
		clear(s.loads)
		for i, m := range s.a.Models() {
			xi := m.Workflow.ArrivalRate
			if i == e.Index {
				xi = theta
			}
			s.loads.AddScaled(xi, s.a.WorkflowRequests(i))
		}
		for x := range s.side {
			var err error
			if s.side[x], err = s.term(x, s.cfg[x], s.a.Env().Type(x), s.loads[x]); err != nil {
				return err
			}
		}
		s.reduce(s.side, p)
		return nil
	}
	st := s.a.Env().Type(e.Index)
	switch e.Kind {
	case FailureRate:
		st.FailureRate = theta
	case RepairRate:
		st.RepairRate = theta
	case MeanService:
		st.MeanService = theta
	case ServiceSecondMoment:
		st.ServiceSecondMoment = theta
	}
	if err := st.Validate(); err != nil {
		return err
	}
	return s.typeSide(e.Index, s.cfg[e.Index], st, p)
}

var errNegative = errors.New("sensitivity: negative parameter")

// continuousEntry computes one central-difference entry with adaptive
// stepping: shrink the step (÷4, up to 3 times) while neither side is
// evaluable, fall back to a one-sided difference when exactly one is.
func (s *separable) continuousEntry(e *Entry) {
	h := relStep * math.Abs(e.Value)
	if h == 0 {
		h = relStep
	}
	for try := 0; try < 4; try++ {
		errP := s.eval(e, e.Value+h, &s.plus)
		errM := errNegative
		if e.Value-h >= 0 {
			errM = s.eval(e, e.Value-h, &s.minus)
		}
		switch {
		case errP == nil && errM == nil:
			e.difference("central", h, &s.plus, &s.minus, 2*h)
			return
		case errP == nil:
			e.difference("forward", h, &s.plus, &s.base, h)
			return
		case errM == nil:
			e.difference("backward", h, &s.base, &s.minus, h)
			return
		}
		h /= 4
	}
}

// replicaEntry computes the discrete ±1 difference for Y_x.
func (s *separable) replicaEntry(e *Entry) {
	x, y := e.Index, s.cfg[e.Index]
	st := s.a.Env().Type(x)
	e.Step = 1
	if s.typeSide(x, y+1, st, &s.plus) != nil {
		return
	}
	if y > 1 && s.typeSide(x, y-1, st, &s.minus) == nil {
		e.difference("central_discrete", 1, &s.plus, &s.minus, 2)
		return
	}
	e.difference("forward_discrete", 1, &s.plus, &s.base, 1)
}

// difference records the per-metric difference quotient (hi − lo)/denom.
func (e *Entry) difference(method string, step float64, hi, lo *point, denom float64) {
	e.Method, e.Step = method, step
	e.DMaxWaiting = (hi.maxWaiting - lo.maxWaiting) / denom
	e.DUnavailability = (hi.unavailability - lo.unavailability) / denom
	e.DWorkflowDelays = make([]float64, len(hi.delays))
	for i := range hi.delays {
		e.DWorkflowDelays[i] = (hi.delays[i] - lo.delays[i]) / denom
	}
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

var nouns = map[Kind]string{
	FailureRate:         "failure rate",
	RepairRate:          "repair rate",
	MeanService:         "mean service time",
	ServiceSecondMoment: "service second moment",
	ArrivalRate:         "arrival rate",
	Replicas:            "replica count",
}

// describe names a parameter for humans: `server type 2 ("app")'s
// service second moment`.
func describe(e Entry) string {
	if e.Kind == ArrivalRate {
		return fmt.Sprintf("workflow %q's %s", e.Target, nouns[e.Kind])
	}
	return fmt.Sprintf("server type %d (%q)'s %s", e.Index, e.Target, nouns[e.Kind])
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
