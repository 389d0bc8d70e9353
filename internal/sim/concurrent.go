package sim

import (
	"fmt"

	"performa/internal/audit"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// One walker, two plans. Every workflow instance is a token walking a
// chartPlan; what differs between the modes is the plan.
//
// True-concurrency mode walks the uncollapsed statechart (buildChartPlan):
// entering an AND-state spawns one token per orthogonal subchart and a
// join barrier releases the parent only when every branch has completed.
// The measured turnaround therefore contains E[max of the branch
// turnaround VARIABLES], the quantity the paper's Section 4.2.2 collapse
// underestimates, which makes this mode the simulation side of the wfnet
// differential route (crossval -net): a validator that simulates the
// collapsed model can never falsify the collapse. Its trail records
// state entries and exits at every chart level under that level's chart
// name, nested activity spans, and service requests attributed to their
// instance and activity.
//
// Collapsed mode walks the stage chain of spec.Expand compiled into one
// flat plan (flatPlan): a parallel AND-state is one chain state whose
// residence is the max of the subworkflows' MEAN turnarounds, every
// stage is a plan state of its own, and the trail records the top-level
// chart with unattributed service requests.
//
// Both plans share the des event core, the server pools and dispatch
// policies, the request spreading over Erlang stages, branch choice, the
// pseudo final entry and the audit-trail record kinds.

// branch is one resolved outgoing transition of a plan state: the next
// plan state, or -1 for chart completion.
type branch struct {
	prob float64
	next int
}

// stageLoad is the per-stage expected request load on one server type.
type stageLoad struct {
	typeIdx  int
	perStage float64
}

// planState is one state a token visits.
type planState struct {
	name     string
	activity string // "" for AND states
	stages   int
	rate     float64 // per-stage exit rate stages/duration (activities)
	loads    []stageLoad
	subs     []*chartPlan // non-nil for AND states: one plan per branch
	out      []branch
}

// chartPlan pre-resolves one chart level for the token walker: real
// states in StateNames order, the spliced initial state, outgoing
// probabilities with pseudo-state targets resolved, and the pseudo final
// state whose entry the trail records when a token completes the chart
// ("" when the final state is real). A flat plan's requests carry no
// instance or activity and go out through the runner's bound dispatches.
type chartPlan struct {
	chart       *statechart.Chart
	states      []planState
	initial     int
	pseudoFinal string
	flat        bool
}

// buildChartPlan compiles a chart (and, recursively, the subcharts of
// its AND states) into a walker plan.
func buildChartPlan(chart *statechart.Chart, profiles map[string]spec.ActivityProfile, env *spec.Environment) (*chartPlan, error) {
	real := make(map[string]bool, len(chart.States))
	for name, s := range chart.States {
		if s.Activity != "" || len(s.Subcharts) > 0 {
			real[name] = true
		} else if name != chart.Initial && name != chart.Final {
			return nil, fmt.Errorf("sim: chart %q: state %q has neither an activity nor a subworkflow", chart.Name, name)
		}
	}
	initial := chart.Initial
	if !real[initial] {
		out := chart.Outgoing(initial)
		if len(out) != 1 || !real[out[0].To] {
			return nil, fmt.Errorf("sim: chart %q: pseudo initial state %q must lead to exactly one real state", chart.Name, initial)
		}
		initial = out[0].To
	}

	plan := &chartPlan{chart: chart}
	if !real[chart.Final] {
		plan.pseudoFinal = chart.Final
	}
	index := make(map[string]int, len(chart.States))
	for _, name := range chart.StateNames() {
		if !real[name] {
			continue
		}
		index[name] = len(plan.states)
		s := chart.States[name]
		ps := planState{name: name, activity: s.Activity, stages: 1}
		if s.Activity != "" {
			prof := profiles[s.Activity]
			if k := prof.DurationStages; k > 1 {
				ps.stages = k
			}
			if !(prof.MeanDuration > 0) {
				return nil, fmt.Errorf("sim: chart %q activity %q has non-positive mean duration", chart.Name, s.Activity)
			}
			ps.rate = float64(ps.stages) / prof.MeanDuration
			for serverType, l := range prof.Load {
				x, ok := env.Index(serverType)
				if !ok {
					return nil, fmt.Errorf("sim: chart %q activity %q loads unknown server type %q", chart.Name, s.Activity, serverType)
				}
				if l > 0 {
					ps.loads = append(ps.loads, stageLoad{typeIdx: x, perStage: l / float64(ps.stages)})
				}
			}
			// Deterministic load order regardless of map iteration.
			for a := 1; a < len(ps.loads); a++ {
				for b := a; b > 0 && ps.loads[b].typeIdx < ps.loads[b-1].typeIdx; b-- {
					ps.loads[b], ps.loads[b-1] = ps.loads[b-1], ps.loads[b]
				}
			}
		} else {
			for _, sub := range s.Subcharts {
				subPlan, err := buildChartPlan(sub, profiles, env)
				if err != nil {
					return nil, err
				}
				ps.subs = append(ps.subs, subPlan)
			}
		}
		plan.states = append(plan.states, ps)
	}
	plan.initial = index[initial]

	for i := range plan.states {
		name := plan.states[i].name
		for _, t := range chart.Outgoing(name) {
			tgt := branch{prob: t.Prob}
			switch {
			case real[t.To]:
				tgt.next = index[t.To]
			case t.To == chart.Initial:
				// Loop back through the pseudo initial state re-enters
				// the spliced first real state (as in spec.Build).
				tgt.next = index[initial]
			default: // pseudo final
				tgt.next = -1
			}
			plan.states[i].out = append(plan.states[i].out, tgt)
		}
		// A real final state absorbs with probability one.
		if len(plan.states[i].out) == 0 {
			plan.states[i].out = []branch{{prob: 1, next: -1}}
		}
	}
	return plan, nil
}

// flatPlan compiles an expanded model's chain into the collapsed mode's
// plan: one single-stage state per transient chain state, with its
// StateNames entry, its chart activity, rate 1/H_i and the nonzero
// entries of column i of Load in type order; its branches are its
// nonzero arcs in target order, an arc to s_A completing the chart (the
// semantics of Chain.Next). The chart's final state, when it is a
// pseudo state, was spliced into s_A, so its entry is the plan's pseudo
// final entry.
func flatPlan(m *spec.Model) *chartPlan {
	c, chart := m.Chain, m.Workflow.Chart
	abs := c.Absorbing()
	plan := &chartPlan{chart: chart, states: make([]planState, abs), flat: true}
	if f, ok := chart.States[chart.Final]; ok && f.Activity == "" && len(f.Subcharts) == 0 {
		plan.pseudoFinal = chart.Final
	}
	for i := range plan.states {
		ps := &plan.states[i]
		ps.name, ps.stages, ps.rate = m.StateNames[i], 1, 1/c.H[i]
		if s, ok := chart.States[ps.name]; ok {
			ps.activity = s.Activity
		}
		for x := 0; x < m.Load.Rows(); x++ {
			if l := m.Load.At(x, i); l != 0 {
				ps.loads = append(ps.loads, stageLoad{typeIdx: x, perStage: l})
			}
		}
		for _, a := range c.Arcs[i] {
			if a.Prob == 0 {
				continue
			}
			next := a.To
			if next == abs {
				next = -1
			}
			ps.out = append(ps.out, branch{prob: a.Prob, next: next})
		}
		if len(ps.out) == 0 {
			ps.out = []branch{{prob: 1, next: -1}}
		}
	}
	return plan
}

// buildPlans compiles the plan each model's instances walk: its chart in
// true-concurrency mode, the flat plan of its chain otherwise.
func (r *runner) buildPlans() error {
	r.plans = make([]*chartPlan, len(r.p.Models))
	for i, m := range r.p.Models {
		if !r.p.TrueConcurrency {
			r.plans[i] = flatPlan(m)
			continue
		}
		w := m.Workflow
		plan, err := buildChartPlan(w.Chart, w.Profiles, r.p.Env)
		if err != nil {
			return err
		}
		r.plans[i] = plan
	}
	return nil
}

// token is one walker position: a workflow instance in its model's plan,
// or one branch of an AND state in that branch's subchart plan.
type token struct {
	i      int // model index
	plan   *chartPlan
	state  int
	stage  int
	inst   uint64
	born   float64
	parent *token // the AND state's token this branch joins; nil for an instance
	joins  int    // branches still running while the token is at an AND state
	// step ends the current stage's residence, bound once.
	step func()
}

// start begins one instance of workflow i: a token at its plan's
// initial state.
func (r *runner) start(i int) {
	var inst uint64
	if r.trail != nil {
		r.instSeq++
		inst = r.instSeq
		r.trail.Append(audit.Record{
			Kind: audit.InstanceStarted, Time: r.sim.Now(),
			Workflow: r.workflows[i], Instance: inst,
		})
	}
	t := r.newToken(i, r.plans[i], inst, nil)
	t.born = r.sim.Now()
	r.enter(t, t.plan.initial)
}

// newToken returns a token at the start of plan. A finished token has
// no pending event, so it is reused with the callback bound at its
// first use.
func (r *runner) newToken(i int, plan *chartPlan, inst uint64, parent *token) *token {
	if n := len(r.idle); n > 0 {
		t := r.idle[n-1]
		r.idle = r.idle[:n-1]
		*t = token{i: i, plan: plan, inst: inst, parent: parent, step: t.step}
		return t
	}
	t := &token{i: i, plan: plan, inst: inst, parent: parent}
	t.step = func() { r.step(t) }
	return t
}

// enter moves a token into a plan state: an AND state forks one token
// per subchart, an activity state starts its first stage.
func (r *runner) enter(t *token, state int) {
	t.state, t.stage = state, 0
	ps := &t.plan.states[state]
	if r.trail != nil {
		r.traceState(audit.StateEntered, t, ps.name)
		r.traceActivity(audit.ActivityStarted, t, ps.activity)
	}
	if ps.subs != nil {
		t.joins = len(ps.subs)
		for _, sub := range ps.subs {
			r.enter(r.newToken(t.i, sub, t.inst, t), sub.initial)
		}
		return
	}
	r.stage(t, ps)
}

// stage draws one Erlang stage's residence, spreads the stage's service
// requests uniformly over it and schedules its end. The load entry is an
// expectation: it draws integer + Bernoulli(frac) requests, so the
// aggregate arrival process stays close to Poisson (what the M/G/1
// model assumes).
func (r *runner) stage(t *token, ps *planState) {
	residence := r.rng.Exp(ps.rate)
	for _, ld := range ps.loads {
		n := int(ld.perStage)
		if frac := ld.perStage - float64(n); frac > 0 && r.rng.Float64() < frac {
			n++
		}
		send := r.dispatches[t.i][ld.typeIdx]
		if !t.plan.flat && n > 0 {
			req := request{typeIdx: ld.typeIdx, wfIdx: t.i, inst: t.inst, activity: ps.activity}
			send = func() { r.dispatch(req) }
		}
		for j := 0; j < n; j++ {
			r.sim.After(r.rng.Float64()*residence, send)
		}
	}
	r.sim.After(residence, t.step)
}

// step ends a token's stage: the next stage follows, or the token leaves
// the state after its last one.
func (r *runner) step(t *token) {
	ps := &t.plan.states[t.state]
	if t.stage++; t.stage < ps.stages {
		r.stage(t, ps)
		return
	}
	r.leave(t)
}

// leave ends a token's visit and takes a sampled branch: the next state,
// or the chart's completion, which joins an AND branch into its parent
// or completes the instance.
func (r *runner) leave(t *token) {
	ps := &t.plan.states[t.state]
	if r.trail != nil {
		r.traceActivity(audit.ActivityCompleted, t, ps.activity)
		r.traceState(audit.StateLeft, t, ps.name)
	}
	if next := r.pickNext(ps); next >= 0 {
		r.enter(t, next)
		return
	}
	if r.trail != nil {
		// A pseudo final state has no plan state; without its entry the
		// chart's final transition would be invisible to calibration.
		r.traceState(audit.StateEntered, t, t.plan.pseudoFinal)
	}
	if p := t.parent; p != nil {
		r.idle = append(r.idle, t)
		if p.joins--; p.joins == 0 {
			r.leave(p)
		}
		return
	}
	if r.warm {
		r.completed[t.i]++
		r.turnaround[t.i].Add(r.sim.Now() - t.born)
	}
	if r.trail != nil {
		r.trail.Append(audit.Record{
			Kind: audit.InstanceCompleted, Time: r.sim.Now(),
			Workflow: r.workflows[t.i], Instance: t.inst,
		})
	}
	r.idle = append(r.idle, t)
}

// traceState appends a state record under the token's chart name; the
// empty pseudo final state of a chart whose final state is real records
// nothing.
func (r *runner) traceState(kind audit.EventKind, t *token, state string) {
	if state == "" {
		return
	}
	r.trail.Append(audit.Record{
		Kind: kind, Time: r.sim.Now(),
		Workflow: r.workflows[t.i], Instance: t.inst,
		Chart: t.plan.chart.Name, State: state,
	})
}

// traceActivity appends an activity span record; an AND state (no
// activity) records nothing.
func (r *runner) traceActivity(kind audit.EventKind, t *token, activity string) {
	if activity == "" {
		return
	}
	r.trail.Append(audit.Record{
		Kind: kind, Time: r.sim.Now(),
		Workflow: r.workflows[t.i], Instance: t.inst, Activity: activity,
	})
}

// pickNext samples the outgoing branch of a plan state.
func (r *runner) pickNext(ps *planState) int {
	u := r.rng.Float64()
	var cum float64
	next := ps.out[len(ps.out)-1].next
	for _, t := range ps.out {
		cum += t.prob
		if u < cum {
			return t.next
		}
	}
	return next
}
