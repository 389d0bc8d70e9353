// Package crossval is the differential validation harness: it generates
// randomized-but-valid workflow systems at the spec level and checks
// that three independent routes to the same metrics agree — the
// analytic stack (perf + avail + performability), the discrete-event
// simulator (internal/sim), and textbook closed-form oracles (M/M/1
// waiting times, birth–death availability, expected-visits turnaround).
// Disagreements beyond a CI-width-aware tolerance are shrunk to minimal
// reproducers and written as replayable corpus files.
package crossval

import (
	"fmt"
	"math"

	"performa/internal/dist"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// System is one generated (or replayed) test system: a server-type
// universe, a workflow mix with arrival rates, a replica vector, and the
// per-type simulator service distributions whose first two moments match
// the environment's declared moments.
type System struct {
	// Seed is the generator seed that produced the system (informational
	// for replayed corpus systems).
	Seed uint64
	// Env is the server-type universe.
	Env *spec.Environment
	// Flows is the workflow mix.
	Flows []*spec.Workflow
	// Replicas is the configuration vector Y under test.
	Replicas []int
}

// ServiceDists returns per-type simulator service distributions matching
// the environment's declared (mean, second moment) pairs: Erlang-2 for
// scv 0.5, exponential for scv 1, and a balanced-means hyperexponential
// for scv > 1. The same mapping serves generation and corpus replay, so
// corpus files only need to carry the environment.
func (s *System) ServiceDists() ([]dist.Distribution, error) {
	out := make([]dist.Distribution, s.Env.K())
	for x := 0; x < s.Env.K(); x++ {
		st := s.Env.Type(x)
		scv := st.ServiceSecondMoment/(st.MeanService*st.MeanService) - 1
		switch {
		case math.Abs(scv-1) < 1e-9:
			out[x] = dist.ExponentialFromMean(st.MeanService)
		case math.Abs(scv-0.5) < 1e-9:
			out[x] = dist.ErlangFromMean(2, st.MeanService)
		case scv > 1:
			out[x] = dist.HyperExpFromMeanSCV(st.MeanService, scv)
		default:
			return nil, fmt.Errorf("crossval: server type %q has scv %v; no matching simulator distribution (want 0.5, 1, or > 1)", st.Name, scv)
		}
	}
	return out, nil
}

// Clone returns a deep copy of the system (environment types are value
// copies inside a fresh Environment, flows and replicas are duplicated).
func (s *System) Clone() *System {
	env := spec.MustEnvironment(s.Env.Types()...)
	flows := make([]*spec.Workflow, len(s.Flows))
	for i, f := range s.Flows {
		flows[i] = f.Clone()
	}
	return &System{
		Seed:     s.Seed,
		Env:      env,
		Flows:    flows,
		Replicas: append([]int(nil), s.Replicas...),
	}
}

// generator knobs: the ranges are chosen so every generated system is
// structurally valid, analytically stable (max utilization well below
// one), and cheap enough to simulate in a few seconds.
const (
	minTypes, maxTypes             = 2, 4
	minWorkflows, maxWorkflows     = 1, 3
	minActivities, maxActivities   = 2, 6
	minMeanService, maxMeanService = 0.02, 0.15
	minDuration, maxDuration       = 5, 30
	minMTTF, maxMTTF               = 50, 250
	minTargetRho, maxTargetRho     = 0.2, 0.55
)

// serverKinds cycles through the paper's server-type classification.
var serverKinds = []spec.ServerKind{
	spec.Communication, spec.Engine, spec.Application, spec.Directory, spec.Worklist,
}

// Generate builds a randomized valid system from the seed. The same seed
// always yields the same system. The construction guarantees structural
// validity (spec.Build succeeds) and bounded utilization, so any error
// indicates a generator bug.
func Generate(seed uint64) (*System, error) {
	rng := dist.NewRNG(seed)

	k := minTypes + rng.Intn(maxTypes-minTypes+1)
	types := make([]spec.ServerType, k)
	for x := 0; x < k; x++ {
		b := minMeanService + (maxMeanService-minMeanService)*rng.Float64()
		// scv 1 twice as likely: exponential service is the base case.
		scv := []float64{0.5, 1, 1, 2}[rng.Intn(4)]
		mttf := minMTTF + (maxMTTF-minMTTF)*rng.Float64()
		// Per-server steady-state unavailability MTTR/(MTTF+MTTR)
		// lands in [0.02, 0.11].
		u := 0.02 + 0.09*rng.Float64()
		mttr := mttf * u / (1 - u)
		types[x] = spec.ServerType{
			Name:                fmt.Sprintf("type%d", x),
			Kind:                serverKinds[x%len(serverKinds)],
			MeanService:         b,
			ServiceSecondMoment: (1 + scv) * b * b,
			FailureRate:         1 / mttf,
			RepairRate:          1 / mttr,
		}
	}
	env, err := spec.NewEnvironment(types...)
	if err != nil {
		return nil, fmt.Errorf("crossval: seed %d: %w", seed, err)
	}

	replicas := make([]int, k)
	for x := range replicas {
		replicas[x] = 1 + rng.Intn(3)
	}

	nFlows := minWorkflows + rng.Intn(maxWorkflows-minWorkflows+1)
	flows := make([]*spec.Workflow, nFlows)
	for i := range flows {
		flows[i] = genWorkflow(rng, env, i)
	}

	sys := &System{Seed: seed, Env: env, Flows: flows, Replicas: replicas}
	if err := scaleArrivals(sys, rng); err != nil {
		return nil, fmt.Errorf("crossval: seed %d: %w", seed, err)
	}
	return sys, nil
}

// genWorkflow builds one workflow: a forward activity chain with random
// skip edges, occasional back edges (loops), and occasional nested or
// parallel subcharts, plus the activity profiles it references.
func genWorkflow(rng *dist.RNG, env *spec.Environment, idx int) *spec.Workflow {
	name := fmt.Sprintf("wf%d", idx)
	profiles := make(map[string]spec.ActivityProfile)

	nAct := minActivities + rng.Intn(maxActivities-minActivities+1)
	chart := &statechart.Chart{
		Name:    name,
		Initial: "init",
		Final:   "done",
		States: map[string]*statechart.State{
			"init": {Name: "init"},
			"done": {Name: "done"},
		},
	}
	stateNames := make([]string, nAct)
	for j := 0; j < nAct; j++ {
		sn := fmt.Sprintf("s%d", j)
		stateNames[j] = sn
		st := &statechart.State{Name: sn}
		// Roughly one state in six embeds subcharts (nested workflow,
		// sometimes two orthogonal components executed in parallel).
		if rng.Intn(6) == 0 {
			nSub := 1 + rng.Intn(2)
			for c := 0; c < nSub; c++ {
				st.Subcharts = append(st.Subcharts,
					genSubchart(rng, env, profiles, fmt.Sprintf("%s_sub%d_%d", name, j, c)))
			}
		} else {
			act := fmt.Sprintf("%s_a%d", name, j)
			st.Activity = act
			profiles[act] = genProfile(rng, env, act)
		}
		chart.States[sn] = st
	}

	// Transitions: init → s0, then from each s_j a main edge forward,
	// sometimes a skip edge further forward, sometimes a back edge
	// (forming a loop); the last state exits to done, occasionally
	// retrying from an earlier state.
	chart.Transitions = append(chart.Transitions, &statechart.Transition{From: "init", To: "s0", Prob: 1})
	for j := 0; j < nAct; j++ {
		from := stateNames[j]
		next := "done"
		if j+1 < nAct {
			next = stateNames[j+1]
		}
		remaining := 1.0
		// Back edge: probability mass 0.05–0.15 back to a strictly
		// earlier state. Keeps the absorbing CTMC interesting (expected
		// visits > 1) while the forward chain keeps "done" reachable.
		if j > 0 && rng.Intn(3) == 0 {
			p := 0.05 + 0.1*rng.Float64()
			back := stateNames[rng.Intn(j)]
			chart.Transitions = append(chart.Transitions,
				&statechart.Transition{From: from, To: back, Prob: p, Event: "retry"})
			remaining -= p
		}
		// Skip edge: split the rest with a jump past the next state.
		if j+2 < nAct && rng.Intn(3) == 0 {
			p := remaining * (0.2 + 0.3*rng.Float64())
			skip := stateNames[j+2+rng.Intn(nAct-j-2)]
			chart.Transitions = append(chart.Transitions,
				&statechart.Transition{From: from, To: skip, Prob: p, Event: "skip"})
			remaining -= p
		}
		chart.Transitions = append(chart.Transitions,
			&statechart.Transition{From: from, To: next, Prob: remaining})
	}

	return &spec.Workflow{
		Name:        name,
		Chart:       chart,
		Profiles:    profiles,
		ArrivalRate: 0.5 + rng.Float64(), // provisional weight; scaled later
	}
}

// genSubchart builds a small linear subworkflow (2–3 activities) and
// registers its activity profiles.
func genSubchart(rng *dist.RNG, env *spec.Environment, profiles map[string]spec.ActivityProfile, name string) *statechart.Chart {
	n := 2 + rng.Intn(2)
	chart := &statechart.Chart{
		Name:    name,
		Initial: "init",
		Final:   "done",
		States: map[string]*statechart.State{
			"init": {Name: "init"},
			"done": {Name: "done"},
		},
	}
	prev := "init"
	for j := 0; j < n; j++ {
		sn := fmt.Sprintf("u%d", j)
		act := fmt.Sprintf("%s_a%d", name, j)
		chart.States[sn] = &statechart.State{Name: sn, Activity: act}
		profiles[act] = genProfile(rng, env, act)
		chart.Transitions = append(chart.Transitions,
			&statechart.Transition{From: prev, To: sn, Prob: 1})
		prev = sn
	}
	chart.Transitions = append(chart.Transitions,
		&statechart.Transition{From: prev, To: "done", Prob: 1})
	return chart
}

// genProfile builds one activity profile: a duration, an occasional
// Erlang stage expansion, and a load vector with at least one positive
// entry.
func genProfile(rng *dist.RNG, env *spec.Environment, name string) spec.ActivityProfile {
	p := spec.ActivityProfile{
		Name:         name,
		MeanDuration: minDuration + (maxDuration-minDuration)*rng.Float64(),
		Load:         make(map[string]float64),
	}
	if rng.Intn(5) == 0 {
		p.DurationStages = 2 + rng.Intn(2)
	}
	for x := 0; x < env.K(); x++ {
		if rng.Intn(5) < 3 { // each type loaded with probability 3/5
			p.Load[env.Type(x).Name] = 0.2 + 0.8*rng.Float64()
		}
	}
	if len(p.Load) == 0 {
		x := rng.Intn(env.K())
		p.Load[env.Type(x).Name] = 0.2 + 0.8*rng.Float64()
	}
	return p
}

// scaleArrivals rescales every workflow's arrival rate by one common
// factor so the maximum per-replica utilization lands on a random target
// in [minTargetRho, maxTargetRho] — stable by construction, loaded
// enough that waiting times are measurable.
func scaleArrivals(sys *System, rng *dist.RNG) error {
	models, err := spec.BuildAll(sys.Flows, sys.Env)
	if err != nil {
		return err
	}
	maxRho := 0.0
	for x := 0; x < sys.Env.K(); x++ {
		var l float64
		for i, m := range models {
			l += sys.Flows[i].ArrivalRate * m.ExpectedRequests()[x]
		}
		rho := l * sys.Env.Type(x).MeanService / float64(sys.Replicas[x])
		if rho > maxRho {
			maxRho = rho
		}
	}
	if !(maxRho > 0) {
		return fmt.Errorf("generated system induces no load on any server type")
	}
	target := minTargetRho + (maxTargetRho-minTargetRho)*rng.Float64()
	scale := target / maxRho
	for _, f := range sys.Flows {
		f.ArrivalRate *= scale
	}
	return nil
}
