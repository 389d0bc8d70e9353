package sim

import (
	"fmt"

	"performa/internal/audit"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// True-concurrency mode: instead of walking the collapsed CTMC of
// spec.Build — where a parallel AND-state is one state whose residence
// is the max of the subworkflows' MEAN turnarounds — the instance walks
// the uncollapsed statechart with fork/join tokens: entering an
// AND-state spawns one token per orthogonal subchart and a join barrier
// releases the parent only when every branch has completed. The
// measured turnaround therefore contains E[max of the branch turnaround
// VARIABLES], the quantity the paper's Section 4.2.2 collapse
// underestimates, which makes this mode the simulation side of the
// wfnet differential route (crossval -net): a validator that simulates
// the collapsed model can never falsify the collapse.
//
// Everything else is shared with the collapsed mode: the des event
// core, the server pools and dispatch policies, the request spreading
// over Erlang stages, and the audit-trail record kinds. The walker sees
// the whole chart, so its trail has more of them: state entries and
// exits at every chart level under that level's chart name, nested
// activity spans, and service requests attributed to their instance and
// activity.

// concTarget is one resolved outgoing branch of a chart state: the next
// plan state, or -1 for chart completion.
type concTarget struct {
	prob float64
	next int
}

// concLoad is the per-stage expected request load on one server type.
type concLoad struct {
	typeIdx  int
	perStage float64
}

// concState is the walker plan for one real chart state.
type concState struct {
	name     string
	activity string // "" for AND states
	stages   int
	rate     float64 // per-stage exit rate stages/duration (activities)
	loads    []concLoad
	subs     []*chartPlan // non-nil for AND states: one plan per branch
	out      []concTarget
}

// chartPlan pre-resolves one chart level for the token walker: real
// states in StateNames order, the spliced initial state, outgoing
// probabilities with pseudo-state targets resolved, and the pseudo final
// state whose entry the trail records when a token completes the chart
// ("" when the final state is real).
type chartPlan struct {
	chart       *statechart.Chart
	states      []concState
	initial     int
	pseudoFinal string
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
		cs := concState{name: name, activity: s.Activity, stages: 1}
		if s.Activity != "" {
			prof := profiles[s.Activity]
			if k := prof.DurationStages; k > 1 {
				cs.stages = k
			}
			if !(prof.MeanDuration > 0) {
				return nil, fmt.Errorf("sim: chart %q activity %q has non-positive mean duration", chart.Name, s.Activity)
			}
			cs.rate = float64(cs.stages) / prof.MeanDuration
			for serverType, l := range prof.Load {
				x, ok := env.Index(serverType)
				if !ok {
					return nil, fmt.Errorf("sim: chart %q activity %q loads unknown server type %q", chart.Name, s.Activity, serverType)
				}
				if l > 0 {
					cs.loads = append(cs.loads, concLoad{typeIdx: x, perStage: l / float64(cs.stages)})
				}
			}
			// Deterministic load order regardless of map iteration.
			for a := 1; a < len(cs.loads); a++ {
				for b := a; b > 0 && cs.loads[b].typeIdx < cs.loads[b-1].typeIdx; b-- {
					cs.loads[b], cs.loads[b-1] = cs.loads[b-1], cs.loads[b]
				}
			}
		} else {
			for _, sub := range s.Subcharts {
				subPlan, err := buildChartPlan(sub, profiles, env)
				if err != nil {
					return nil, err
				}
				cs.subs = append(cs.subs, subPlan)
			}
		}
		plan.states = append(plan.states, cs)
	}
	plan.initial = index[initial]

	for i := range plan.states {
		name := plan.states[i].name
		for _, t := range chart.Outgoing(name) {
			tgt := concTarget{prob: t.Prob}
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
			plan.states[i].out = []concTarget{{prob: 1, next: -1}}
		}
	}
	return plan, nil
}

// buildConcurrentPlans compiles every model's chart for the walker.
func (r *runner) buildConcurrentPlans() error {
	r.concPlans = make([]*chartPlan, len(r.p.Models))
	for i, m := range r.p.Models {
		w := m.Workflow
		if w == nil || w.Chart == nil {
			return fmt.Errorf("sim: true-concurrency mode needs the workflow chart for model %d", i)
		}
		plan, err := buildChartPlan(w.Chart, w.Profiles, r.p.Env)
		if err != nil {
			return err
		}
		r.concPlans[i] = plan
	}
	return nil
}

// startInstanceConcurrent begins a fork/join token walk of workflow i's
// uncollapsed chart.
func (r *runner) startInstanceConcurrent(i int) {
	var inst uint64
	if r.trail != nil {
		r.instSeq++
		inst = r.instSeq
		r.trail.Append(audit.Record{
			Kind: audit.InstanceStarted, Time: r.sim.Now(),
			Workflow: r.meta[i].workflow, Instance: inst,
		})
	}
	born := r.sim.Now()
	r.walkChart(i, r.concPlans[i], inst, func() {
		if r.warm {
			r.completed[i]++
			r.turnaround[i].Add(r.sim.Now() - born)
		}
		if r.trail != nil {
			r.trail.Append(audit.Record{
				Kind: audit.InstanceCompleted, Time: r.sim.Now(),
				Workflow: r.meta[i].workflow, Instance: inst,
			})
		}
	})
}

// walkChart sends one token through a chart plan; done fires when the
// token reaches the chart's final state, right after the trail records
// the entry of a pseudo final state (as the collapsed mode does for the
// top level).
func (r *runner) walkChart(i int, plan *chartPlan, inst uint64, done func()) {
	if r.trail != nil && plan.pseudoFinal != "" {
		chartDone := done
		done = func() {
			r.recordConcState(audit.StateEntered, i, inst, plan, plan.pseudoFinal)
			chartDone()
		}
	}
	r.enterConcState(i, plan, plan.initial, inst, done)
}

// recordConcState appends a state record under the plan's chart name.
func (r *runner) recordConcState(kind audit.EventKind, i int, inst uint64, plan *chartPlan, state string) {
	r.trail.Append(audit.Record{
		Kind: kind, Time: r.sim.Now(),
		Workflow: r.meta[i].workflow, Instance: inst,
		Chart: plan.chart.Name, State: state,
	})
}

// recordConcActivity appends an activity span record.
func (r *runner) recordConcActivity(kind audit.EventKind, i int, inst uint64, activity string) {
	if activity == "" {
		return
	}
	r.trail.Append(audit.Record{
		Kind: kind, Time: r.sim.Now(),
		Workflow: r.meta[i].workflow, Instance: inst, Activity: activity,
	})
}

// enterConcState processes one token's visit of one chart state.
func (r *runner) enterConcState(i int, plan *chartPlan, state int, inst uint64, done func()) {
	cs := &plan.states[state]
	if r.trail != nil {
		r.recordConcState(audit.StateEntered, i, inst, plan, cs.name)
		r.recordConcActivity(audit.ActivityStarted, i, inst, cs.activity)
	}
	leave := func() {
		if r.trail != nil {
			r.recordConcActivity(audit.ActivityCompleted, i, inst, cs.activity)
			r.recordConcState(audit.StateLeft, i, inst, plan, cs.name)
		}
		next := r.pickConcNext(cs)
		if next < 0 {
			done()
			return
		}
		r.enterConcState(i, plan, next, inst, done)
	}

	if cs.subs != nil {
		// AND state: fork one token per orthogonal subchart; the join
		// barrier releases the parent when the last branch completes.
		remaining := len(cs.subs)
		for _, sub := range cs.subs {
			r.walkChart(i, sub, inst, func() {
				remaining--
				if remaining == 0 {
					leave()
				}
			})
		}
		return
	}

	// Activity state: an Erlang stage sequence with per-stage request
	// spreading, exactly like the collapsed route's stage expansion.
	var stage func(idx int)
	stage = func(idx int) {
		residence := r.rng.Exp(cs.rate)
		for _, ld := range cs.loads {
			n := int(ld.perStage)
			if frac := ld.perStage - float64(n); frac > 0 && r.rng.Float64() < frac {
				n++
			}
			req := request{typeIdx: ld.typeIdx, wfIdx: i, inst: inst, activity: cs.activity}
			for j := 0; j < n; j++ {
				at := r.rng.Float64() * residence
				r.sim.After(at, func() { r.dispatch(req) })
			}
		}
		r.sim.After(residence, func() {
			if idx+1 < cs.stages {
				stage(idx + 1)
				return
			}
			leave()
		})
	}
	stage(0)
}

// pickConcNext samples the outgoing branch of a chart state.
func (r *runner) pickConcNext(cs *concState) int {
	u := r.rng.Float64()
	var cum float64
	next := cs.out[len(cs.out)-1].next
	for _, t := range cs.out {
		cum += t.prob
		if u < cum {
			return t.next
		}
	}
	return next
}
