package crossval

import (
	"fmt"
	"math"

	"performa/internal/avail"
	"performa/internal/des"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/sim"
	"performa/internal/spec"
)

// Fault selects a deliberate perturbation of the analytic route's
// inputs (mutation testing of the harness itself): the simulator keeps
// running the unperturbed system, so a working harness must flag the
// induced analytic/simulated divergence.
type Fault int

const (
	// FaultNone runs the honest comparison.
	FaultNone Fault = iota
	// FaultArrivalRate inflates the first workflow's arrival rate by
	// 25% in the analytic route only (a load-model fault).
	FaultArrivalRate
	// FaultServiceMoment inflates the bottleneck type's service-time
	// second moment by 50% in the analytic route only, shifting its
	// M/G/1 waiting prediction by the same factor.
	FaultServiceMoment
	// FaultCollapseBias scales every collapsed subworkflow residence by
	// collapseBiasScale inside spec.Build itself. Unlike the other
	// faults it perturbs the SHARED build path: the analytic chain and
	// the collapsed-model simulator both inherit it and keep agreeing,
	// so Check is blind to it by construction. Only the net route
	// (CheckNet), whose free-choice-net oracle and true-concurrency
	// simulator bypass the collapse entirely, can detect it.
	FaultCollapseBias
	// FaultDropRenormalisation makes the performability route read the
	// evaluator's ExcludeDown waiting times as if the per-type division
	// by P_x(ok) had been forgotten (the unconditioned partial sum). It
	// touches no input, so every other route stays honest; only the
	// joint-enumeration oracle can see it.
	FaultDropRenormalisation
)

// collapseBiasScale is the residence perturbation FaultCollapseBias
// applies to every collapsed subworkflow state (a −20% mean shift, far
// outside tolExact and tolTurnaround).
const collapseBiasScale = 0.8

// buildFaultOpts returns the spec.Build options implementing
// build-path faults; empty for the input-perturbation faults.
func buildFaultOpts(f Fault) []spec.BuildOption {
	if f == FaultCollapseBias {
		return []spec.BuildOption{spec.WithCollapseResidenceScale(collapseBiasScale)}
	}
	return nil
}

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultArrivalRate:
		return "arrival-rate"
	case FaultServiceMoment:
		return "service-moment"
	case FaultCollapseBias:
		return "collapse-bias"
	case FaultDropRenormalisation:
		return "drop-renormalisation"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// Options configures one differential check.
type Options struct {
	// Replications is the number of independent performance-route
	// simulation runs (default 5); their spread feeds the CI term of
	// the tolerance.
	Replications int
	// AvailReplications is the replication count of the availability
	// route (default 3).
	AvailReplications int
	// MaxHorizon caps the per-replication simulated duration of the
	// performance route (default 12000 time units).
	MaxHorizon float64
	// Fault optionally perturbs the analytic route (mutation mode).
	Fault Fault
	// Penalty is the saturation penalty of the performability route
	// (default 100).
	Penalty float64
}

func (o *Options) setDefaults() {
	if o.Replications <= 0 {
		o.Replications = 5
	}
	if o.AvailReplications <= 0 {
		o.AvailReplications = 3
	}
	if o.MaxHorizon <= 0 {
		o.MaxHorizon = 12000
	}
	if o.Penalty <= 0 {
		o.Penalty = 100
	}
}

// Tolerances. The performance route carries a relative term for the
// simulator's documented burst bias (requests released in bursts along a
// CTMC walk wait slightly more than the Poisson-smooth M/G/1 ideal; see
// EXPERIMENTS.md E7) on top of the Z·stderr CI term; the closed-form
// oracles compare two deterministic computations and tolerate only
// rounding.
var (
	tolWaiting     = Tol{Z: 4, Rel: 0.15, Abs: 0.003}
	tolUtilization = Tol{Z: 4, Rel: 0.02, Abs: 0.005}
	tolTurnaround  = Tol{Z: 4, Rel: 0.03, Abs: 0.05}
	tolUnavail     = Tol{Z: 4, Rel: 0.10, Abs: 0.002}
	tolExact       = Tol{Rel: 1e-9, Abs: 1e-12}
	tolPerfy       = Tol{Rel: 1e-12}
)

// minWaitingSamples is the expected request count below which the
// waiting-time comparison for a type is skipped as underpowered.
const minWaitingSamples = 400

// minTurnaroundSamples is the completed-instance count below which the
// turnaround comparison for a workflow is skipped.
const minTurnaroundSamples = 150

// Check runs every route over the system and returns the detected
// disagreements (empty for a healthy system and harness). An error means
// a route could not run at all — a generator or harness defect, not a
// model disagreement.
func Check(sys *System, opt Options) ([]Disagreement, error) {
	opt.setDefaults()

	// The analytic route sees the (possibly faulted) copy; the
	// simulator always runs the honest system. FaultCollapseBias is the
	// exception: a shared-build-path fault applies to BOTH routes (they
	// keep agreeing — the blindness CheckNet exists to break).
	// FaultDropRenormalisation perturbs no input at all; the
	// performability route applies it to the evaluator's answer.
	analytic := sys
	if opt.Fault == FaultArrivalRate || opt.Fault == FaultServiceMoment {
		var err error
		analytic, err = applyFault(sys, opt.Fault)
		if err != nil {
			return nil, err
		}
	}
	bopts := buildFaultOpts(opt.Fault)

	models, err := spec.BuildAll(sys.Flows, sys.Env, bopts...)
	if err != nil {
		return nil, fmt.Errorf("crossval: building simulation models: %w", err)
	}
	modelsA, err := spec.BuildAll(analytic.Flows, analytic.Env, bopts...)
	if err != nil {
		return nil, fmt.Errorf("crossval: building analytic models: %w", err)
	}
	analysis, err := perf.NewAnalysis(analytic.Env, modelsA)
	if err != nil {
		return nil, fmt.Errorf("crossval: analysis: %w", err)
	}
	report, err := analysis.Evaluate(perf.Config{Replicas: analytic.Replicas})
	if err != nil {
		return nil, fmt.Errorf("crossval: evaluate: %w", err)
	}

	var ds []Disagreement
	ds, err = perfRoute(ds, sys, models, report, opt)
	if err != nil {
		return nil, err
	}
	ds, err = turnaroundRoute(ds, sys, modelsA, bopts)
	if err != nil {
		return nil, err
	}
	ds, err = availRoute(ds, sys, analytic, opt)
	if err != nil {
		return nil, err
	}
	ds, err = performabilityRoute(ds, analytic, analysis, opt)
	if err != nil {
		return nil, err
	}
	ds, err = solverRoute(ds, analytic, opt)
	if err != nil {
		return nil, err
	}
	ds = oracleRoute(ds, analytic, modelsA, report)
	return ds, nil
}

// applyFault returns a copy of the system with the fault applied.
func applyFault(sys *System, fault Fault) (*System, error) {
	m := sys.Clone()
	switch fault {
	case FaultArrivalRate:
		m.Flows[0].ArrivalRate *= 1.25
	case FaultServiceMoment:
		// Perturb the most utilized type: that is where the waiting
		// comparison has the densest samples and the largest reference.
		models, err := spec.BuildAll(sys.Flows, sys.Env)
		if err != nil {
			return nil, err
		}
		bottleneck, best := 0, -1.0
		for x := 0; x < sys.Env.K(); x++ {
			var l float64
			for i, mm := range models {
				l += sys.Flows[i].ArrivalRate * mm.ExpectedRequests()[x]
			}
			rho := l * sys.Env.Type(x).MeanService / float64(sys.Replicas[x])
			if rho > best {
				best, bottleneck = rho, x
			}
		}
		types := m.Env.Types()
		types[bottleneck].ServiceSecondMoment *= 1.5
		env, err := spec.NewEnvironment(types...)
		if err != nil {
			return nil, err
		}
		m.Env = env
	default:
		return nil, fmt.Errorf("crossval: unknown fault %v", fault)
	}
	return m, nil
}

// perfRoute replicates the failure-free simulation and compares waiting
// times, utilizations, turnarounds, and per-workflow request waiting
// against the analytic report.
func perfRoute(ds []Disagreement, sys *System, models []*spec.Model, report *perf.Report, opt Options) ([]Disagreement, error) {
	dists, err := sys.ServiceDists()
	if err != nil {
		return nil, err
	}
	k := sys.Env.K()

	// Honest per-type loads size the horizon: enough requests per type
	// for the CI term to be meaningful, within the cap.
	loads := make([]float64, k)
	for i, m := range models {
		req := m.ExpectedRequests()
		for x := 0; x < k; x++ {
			loads[x] += sys.Flows[i].ArrivalRate * req[x]
		}
	}
	// The measurement window needs ~2000 requests per compared type;
	// the warmup must outlast the instance-population ramp (a few max
	// turnarounds), or time-averaged utilization starts from an empty
	// system and reads low.
	maxTurn := 0.0
	for _, m := range models {
		if t := m.Turnaround(); t > maxTurn {
			maxTurn = t
		}
	}
	window := 800.0
	for x := 0; x < k; x++ {
		if loads[x] > 0 {
			if h := 2000 / loads[x]; h > window {
				window = h
			}
		}
	}
	if window > opt.MaxHorizon {
		window = opt.MaxHorizon
	}
	warmup := 3*maxTurn + 50
	horizon := warmup + window

	waiting := make([]des.Tally, k)
	util := make([]des.Tally, k)
	wfWaiting := make([]des.Tally, len(models))
	waitN := make([]uint64, k)
	wfWaitN := make([]uint64, len(models))

	for r := 0; r < opt.Replications; r++ {
		res, err := sim.Run(sim.Params{
			Env:          sys.Env,
			Models:       models,
			Replicas:     sys.Replicas,
			ServiceDists: dists,
			Seed:         sys.Seed*1009 + uint64(r) + 1,
			Horizon:      horizon,
			Warmup:       warmup,
			Dispatch:     sim.Random,
			// Walk the uncollapsed charts: the collapsed walker gives an
			// AND state one exponential residence, which skews the request
			// stream M/G/1 is measured against.
			TrueConcurrency: true,
		})
		if err != nil {
			return nil, fmt.Errorf("crossval: perf-route simulation: %w", err)
		}
		for x := 0; x < k; x++ {
			if res.Waiting[x].N > 0 {
				waiting[x].Add(res.Waiting[x].Mean)
			}
			util[x].Add(res.Utilization[x])
			waitN[x] += res.Waiting[x].N
		}
		for i := range models {
			if res.WorkflowWaiting[i].N > 0 {
				wfWaiting[i].Add(res.WorkflowWaiting[i].Mean)
			}
			wfWaitN[i] += res.WorkflowWaiting[i].N
		}
	}

	for x := 0; x < k; x++ {
		name := sys.Env.Type(x).Name
		ds = compare(ds, "perf", fmt.Sprintf("utilization[%s]", name),
			report.Utilization[x], util[x].Mean(), util[x].StdErr(), tolUtilization)
		if waitN[x] < minWaitingSamples || waiting[x].N() < uint64(opt.Replications) {
			continue // underpowered: too few queueing observations
		}
		ds = compare(ds, "perf", fmt.Sprintf("waiting[%s]", name),
			report.Waiting[x], waiting[x].Mean(), waiting[x].StdErr(), tolWaiting)
	}
	for i, m := range models {
		// Mean queueing delay per request of this workflow: the
		// analytic per-instance delay spread over its requests.
		var totalReq float64
		for _, r := range m.ExpectedRequests() {
			totalReq += r
		}
		if totalReq > 0 && wfWaitN[i] >= minWaitingSamples && wfWaiting[i].N() == uint64(opt.Replications) {
			ref := report.WorkflowDelay[i] / totalReq
			ds = compare(ds, "perf", fmt.Sprintf("request-waiting[%s]", sys.Flows[i].Name),
				ref, wfWaiting[i].Mean(), wfWaiting[i].StdErr(), tolWaiting)
		}
	}
	return ds, nil
}

// turnaroundRoute compares analytic mean turnarounds (CTMC first-passage
// times) against simulated instance turnarounds. Build-path faults reach
// the simulated models too: the collapsed walker replays whatever chain
// spec.Build produced.
func turnaroundRoute(ds []Disagreement, sys *System, modelsA []*spec.Model, bopts []spec.BuildOption) ([]Disagreement, error) {
	means := make([]float64, len(modelsA))
	for i, m := range modelsA {
		means[i] = m.Turnaround()
	}
	return simulatedTurnarounds(ds, "turnaround", sys, means, 3019, false, bopts...)
}

// simulatedTurnarounds compares each workflow's expected turnaround in
// means against the simulator (the true-concurrency walker when
// trueConcurrency is set), three replications seeded from seedMul.
// Turnaround is queueing-independent in the simulator (requests are
// fired asynchronously and never block the walk), so the route scales
// the arrival rates down and the horizon up, sized from means: the same
// number of observed instances with far less horizon censoring of
// long-running ones.
func simulatedTurnarounds(ds []Disagreement, route string, sys *System, means []float64, seedMul uint64, trueConcurrency bool, bopts ...spec.BuildOption) ([]Disagreement, error) {
	maxTurn, totalRate := 0.0, 0.0
	for i, t := range means {
		if t > maxTurn {
			maxTurn = t
		}
		totalRate += sys.Flows[i].ArrivalRate
	}
	if maxTurn <= 0 || totalRate <= 0 {
		return ds, nil
	}
	horizon := 150 * maxTurn
	scaled := sys.Clone()
	// ~2000 instances per replication, split in the original mix.
	scale := 2000 / (horizon * totalRate)
	for _, f := range scaled.Flows {
		f.ArrivalRate *= scale
	}
	models, err := spec.BuildAll(scaled.Flows, scaled.Env, bopts...)
	if err != nil {
		return nil, err
	}

	const reps = 3
	turnaround := make([]des.Tally, len(models))
	completed := make([]uint64, len(models))
	for r := 0; r < reps; r++ {
		res, err := sim.Run(sim.Params{
			Env:             scaled.Env,
			Models:          models,
			Replicas:        scaled.Replicas,
			Seed:            sys.Seed*seedMul + uint64(r) + 1,
			Horizon:         horizon,
			Warmup:          horizon / 50,
			TrueConcurrency: trueConcurrency,
		})
		if err != nil {
			return nil, fmt.Errorf("crossval: %s-route simulation: %w", route, err)
		}
		for i := range models {
			if res.Turnaround[i].N > 0 {
				turnaround[i].Add(res.Turnaround[i].Mean)
			}
			completed[i] += res.Completed[i]
		}
	}
	for i := range models {
		if completed[i] < minTurnaroundSamples || turnaround[i].N() != reps {
			continue
		}
		ds = compare(ds, route, fmt.Sprintf("turnaround[%s]", sys.Flows[i].Name),
			means[i], turnaround[i].Mean(), turnaround[i].StdErr(), tolTurnaround)
	}
	return ds, nil
}

// availRoute compares steady-state unavailability four ways: simulated
// (failures on, arrivals off), exact joint CTMC, product form, and the
// birth–death closed form Π_x (1 − u_x^{Y_x}).
func availRoute(ds []Disagreement, sys, analytic *System, opt Options) ([]Disagreement, error) {
	params, err := avail.ParamsFromEnvironment(analytic.Env, analytic.Replicas)
	if err != nil {
		return nil, err
	}
	exact, err := avail.Evaluate(params, avail.IndependentRepair)
	if err != nil {
		return nil, fmt.Errorf("crossval: avail exact: %w", err)
	}
	pf, err := avail.EvaluateProductForm(params, avail.IndependentRepair, false)
	if err != nil {
		return nil, fmt.Errorf("crossval: avail product form: %w", err)
	}
	ds = compare(ds, "avail", "unavailability[product-form-vs-exact]",
		exact.Unavailability, pf.Unavailability, 0, tolExact)

	closed := 1.0
	for x := 0; x < analytic.Env.K(); x++ {
		st := analytic.Env.Type(x)
		u := st.FailureRate / (st.FailureRate + st.RepairRate)
		closed *= 1 - math.Pow(u, float64(analytic.Replicas[x]))
	}
	ds = compare(ds, "oracle-availability", "availability[closed-form-vs-exact]",
		exact.Availability, closed, 0, tolExact)

	// Simulate the honest system with arrivals disabled: steady-state
	// availability is traffic-independent, so zero-rate flows make the
	// run nearly free while the failure/repair processes do the work.
	idle := sys.Clone()
	for _, f := range idle.Flows {
		f.ArrivalRate = 0
	}
	idleModels, err := spec.BuildAll(idle.Flows, idle.Env)
	if err != nil {
		return nil, err
	}
	maxMTTFv := 0.0
	for x := 0; x < sys.Env.K(); x++ {
		if fr := sys.Env.Type(x).FailureRate; fr > 0 {
			if m := 1 / fr; m > maxMTTFv {
				maxMTTFv = m
			}
		}
	}
	if maxMTTFv == 0 {
		return ds, nil // nothing fails; nothing to simulate
	}
	horizon := 400 * maxMTTFv
	var tally des.Tally
	for r := 0; r < opt.AvailReplications; r++ {
		res, err := sim.Run(sim.Params{
			Env:            idle.Env,
			Models:         idleModels,
			Replicas:       idle.Replicas,
			EnableFailures: true,
			Seed:           sys.Seed*2027 + uint64(r) + 1,
			Horizon:        horizon,
			Warmup:         horizon / 20,
		})
		if err != nil {
			return nil, fmt.Errorf("crossval: avail-route simulation: %w", err)
		}
		tally.Add(res.Unavailability)
	}
	ds = compare(ds, "avail", "unavailability[sim-vs-exact]",
		exact.Unavailability, tally.Mean(), tally.StdErr(), tolUnavail)
	return ds, nil
}

// performabilityRoute compares the evaluator's per-type reduction of the
// Markov-reward expectation, under each saturation policy, against the
// literal Section 6 sum: a mixed-radix sweep over every joint system
// state weighted by the product of the per-type marginals — the only
// joint enumeration in the repository. The two share the marginal solver
// and the per-state waiting arithmetic, nothing else, and differ only in
// summation order, so they must agree to rounding.
func performabilityRoute(ds []Disagreement, analytic *System, analysis *perf.Analysis, opt Options) ([]Disagreement, error) {
	params, err := avail.ParamsFromEnvironment(analytic.Env, analytic.Replicas)
	if err != nil {
		return nil, err
	}
	k := analytic.Env.K()
	marginals := make([][]float64, k)
	for x := 0; x < k; x++ {
		m, err := avail.TypeMarginal(params[x], avail.IndependentRepair)
		if err != nil {
			return nil, err
		}
		marginals[x] = m
	}

	for _, opts := range []performability.Options{
		{Policy: performability.Strict},
		{Policy: performability.Penalty, PenaltyValue: opt.Penalty},
		{Policy: performability.ExcludeDown},
	} {
		opts.Discipline = avail.IndependentRepair
		res, err := performability.Evaluate(analysis, perf.Config{Replicas: analytic.Replicas}, opts)
		if err != nil {
			return nil, fmt.Errorf("crossval: performability evaluate (%v): %w", opts.Policy, err)
		}
		got := res.Waiting
		if opt.Fault == FaultDropRenormalisation && opts.Policy == performability.ExcludeDown {
			for x := range got {
				var ok float64 // P_x(ok)
				for j, p := range marginals[x] {
					if !math.IsInf(analysis.LevelWaiting(x, j), 1) {
						ok += p
					}
				}
				got[x] *= ok
			}
		}
		want, err := jointExpectation(analysis, marginals, analytic.Replicas, opts)
		if err != nil {
			return nil, err
		}
		for x := 0; x < k; x++ {
			ds = compare(ds, "performability",
				fmt.Sprintf("waiting[%s,%v]", analytic.Env.Type(x).Name, opts.Policy),
				want[x], got[x], 0, tolPerfy)
		}
	}
	return ds, nil
}

// jointExpectation sweeps all degraded states X ≤ Y in mixed-radix order
// and returns Σ_X π_X·w^X with the saturation policy applied per state.
func jointExpectation(analysis *perf.Analysis, marginals [][]float64, replicas []int, opts performability.Options) ([]float64, error) {
	k := len(replicas)
	want := make([]float64, k)
	state := make([]int, k)
	var w []float64
	var included float64
	for {
		p := 1.0
		for x := 0; x < k; x++ {
			p *= marginals[x][state[x]]
		}
		if p > 0 {
			var err error
			w, err = analysis.DegradedWaiting(state, w)
			if err != nil {
				return nil, err
			}
			saturated := false
			for _, wx := range w {
				saturated = saturated || math.IsInf(wx, 1)
			}
			if !(saturated && opts.Policy == performability.ExcludeDown) {
				included += p
				for x, wx := range w {
					if opts.Policy == performability.Penalty && math.IsInf(wx, 1) {
						wx = opts.PenaltyValue
					}
					want[x] += p * wx
				}
			}
		}
		// increment the mixed-radix counter
		x := 0
		for ; x < k; x++ {
			state[x]++
			if state[x] <= replicas[x] {
				break
			}
			state[x] = 0
		}
		if x == k {
			break
		}
	}
	if opts.Policy == performability.ExcludeDown {
		for x := range want {
			if included == 0 {
				want[x] = math.Inf(1)
			} else {
				want[x] /= included
			}
		}
	}
	return want, nil
}

// oracleRoute checks the analytic stack against textbook closed forms on
// the same inputs: M/M/1 waiting for exponential-service types and the
// expected-visits decomposition of the mean turnaround.
func oracleRoute(ds []Disagreement, analytic *System, models []*spec.Model, report *perf.Report) []Disagreement {
	for x := 0; x < analytic.Env.K(); x++ {
		st := analytic.Env.Type(x)
		scv := st.ServiceSecondMoment/(st.MeanService*st.MeanService) - 1
		if math.Abs(scv-1) > 1e-9 {
			continue // M/M/1 form only holds for exponential service
		}
		lam := report.TypeLoad[x] / float64(analytic.Replicas[x])
		rho := lam * st.MeanService
		var want float64
		switch {
		case rho == 0:
			want = 0
		case rho >= 1:
			want = math.Inf(1)
		default:
			want = rho * st.MeanService / (1 - rho)
		}
		ds = compare(ds, "oracle-mm1", fmt.Sprintf("waiting[%s]", st.Name),
			want, report.Waiting[x], 0, tolExact)
	}
	for i, m := range models {
		visits := m.ExpectedVisits()
		var want float64
		for s, v := range visits {
			want += v * m.Chain.H[s]
		}
		ds = compare(ds, "oracle-turnaround", fmt.Sprintf("turnaround[%s]", analytic.Flows[i].Name),
			want, m.Turnaround(), 0, tolExact)
	}
	return ds
}
