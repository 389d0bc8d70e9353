package crossval

import (
	"math"

	"performa/internal/spec"
	"performa/internal/statechart"
)

// Shrink greedily minimizes a failing system while the predicate keeps
// failing, so corpus files hold minimal reproducers instead of the full
// random system. Structural reductions are tried from coarsest to
// finest — drop whole workflows, collapse subchart states to equivalent
// plain activities, splice out activity states, drop unloaded server
// types — then the surviving rates are rounded for readability. Every
// candidate is re-validated (it must still build) and re-checked (it
// must still fail) before it replaces the current system.
func Shrink(sys *System, failing func(*System) bool) *System {
	cur := sys
	for rounds := 0; rounds < 200; rounds++ {
		next := firstFailing(candidates(cur), failing)
		if next == nil {
			break
		}
		cur = next
	}
	if rounded := roundSystem(cur); rounded != nil && stillBuilds(rounded) && failing(rounded) {
		cur = rounded
	}
	return cur
}

func stillBuilds(sys *System) bool {
	_, err := spec.BuildAll(sys.Flows, sys.Env)
	return err == nil
}

func firstFailing(cands []*System, failing func(*System) bool) *System {
	for _, c := range cands {
		if stillBuilds(c) && failing(c) {
			return c
		}
	}
	return nil
}

// candidates yields the structural one-step reductions of the system,
// coarsest first.
func candidates(sys *System) []*System {
	var out []*System
	// Drop one workflow at a time.
	if len(sys.Flows) > 1 {
		for i := range sys.Flows {
			c := sys.Clone()
			c.Flows = append(c.Flows[:i], c.Flows[i+1:]...)
			out = append(out, c)
		}
	}
	// Collapse one subchart state into a plain activity.
	for i := range sys.Flows {
		for _, name := range sys.Flows[i].Chart.StateNames() {
			if len(sys.Flows[i].Chart.States[name].Subcharts) == 0 {
				continue
			}
			if c := collapseState(sys, i, name); c != nil {
				out = append(out, c)
			}
		}
	}
	// Splice out one activity state.
	for i := range sys.Flows {
		for _, name := range sys.Flows[i].Chart.StateNames() {
			st := sys.Flows[i].Chart.States[name]
			if st.Activity == "" {
				continue
			}
			if c := spliceState(sys, i, name); c != nil {
				out = append(out, c)
			}
		}
	}
	// Drop one unloaded server type.
	for x := 0; x < sys.Env.K(); x++ {
		if c := dropType(sys, x); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// collapseState replaces a subchart state of flow i with an equivalent
// plain activity: the residence becomes the collapsed mean (the maximum
// of the subcharts' turnarounds, per the hierarchical mapping), the load
// becomes the sum of their expected request vectors.
func collapseState(sys *System, i int, state string) *System {
	c := sys.Clone()
	flow := c.Flows[i]
	st := flow.Chart.States[state]

	var maxR float64
	load := make(map[string]float64)
	for _, sub := range st.Subcharts {
		// Build the subchart in isolation to get its turnaround and
		// request vector; the parent's profiles cover its activities.
		tmp := &spec.Workflow{Name: sub.Name, Chart: sub, Profiles: flow.Profiles}
		m, err := spec.Build(tmp, c.Env)
		if err != nil {
			return nil
		}
		if r := m.Turnaround(); r > maxR {
			maxR = r
		}
		req := m.ExpectedRequests()
		for x := 0; x < c.Env.K(); x++ {
			if req[x] > 0 {
				load[c.Env.Type(x).Name] += req[x]
			}
		}
	}
	if !(maxR > 0) {
		return nil
	}
	act := state + "_collapsed"
	if _, taken := flow.Profiles[act]; taken {
		return nil
	}
	st.Subcharts = nil
	st.Activity = act
	flow.Profiles[act] = spec.ActivityProfile{Name: act, MeanDuration: maxR, Load: load}
	pruneProfiles(flow)
	return c
}

// spliceState removes one activity state from flow i's top-level chart,
// rerouting every incoming transition through the state's outgoing
// branching distribution. Returns nil when the splice is impossible: the
// state is the only activity, a rerouted edge would become a self-loop,
// or the pseudo initial state would end up with several outgoing edges.
func spliceState(sys *System, i int, state string) *System {
	c := sys.Clone()
	chart := c.Flows[i].Chart
	if state == chart.Initial || state == chart.Final {
		return nil
	}
	var outgoing []*statechart.Transition
	var incoming []*statechart.Transition
	var rest []*statechart.Transition
	for _, t := range chart.Transitions {
		switch {
		case t.From == state:
			outgoing = append(outgoing, t)
		case t.To == state:
			incoming = append(incoming, t)
		default:
			rest = append(rest, t)
		}
	}
	if len(outgoing) == 0 || len(incoming) == 0 {
		return nil
	}
	if len(outgoing) > 1 {
		for _, in := range incoming {
			if in.From == chart.Initial {
				return nil // pseudo initial state needs exactly one edge
			}
		}
	}
	for _, in := range incoming {
		for _, out := range outgoing {
			if in.From == out.To {
				return nil // splice would create a self-transition
			}
		}
	}
	merged := make(map[[2]string]*statechart.Transition)
	keep := func(t *statechart.Transition) {
		key := [2]string{t.From, t.To}
		if prev, ok := merged[key]; ok {
			prev.Prob += t.Prob
			return
		}
		ct := *t
		merged[key] = &ct
	}
	for _, t := range rest {
		keep(t)
	}
	for _, in := range incoming {
		for _, out := range outgoing {
			keep(&statechart.Transition{From: in.From, To: out.To, Prob: in.Prob * out.Prob})
		}
	}
	chart.Transitions = chart.Transitions[:0]
	for _, name := range chart.StateNames() {
		for _, other := range chart.StateNames() {
			if t, ok := merged[[2]string{name, other}]; ok {
				chart.Transitions = append(chart.Transitions, t)
			}
		}
	}
	delete(chart.States, state)
	pruneProfiles(c.Flows[i])
	return c
}

// pruneProfiles drops profiles no chart state references anymore.
func pruneProfiles(flow *spec.Workflow) {
	used := make(map[string]bool)
	for _, a := range flow.Chart.Activities() {
		used[a] = true
	}
	for name := range flow.Profiles {
		if !used[name] {
			delete(flow.Profiles, name)
		}
	}
}

// dropType removes server type x when no activity loads it, shrinking
// the environment and the replica vector.
func dropType(sys *System, x int) *System {
	if sys.Env.K() <= 1 {
		return nil
	}
	name := sys.Env.Type(x).Name
	for _, f := range sys.Flows {
		for _, p := range f.Profiles {
			if p.Load[name] > 0 {
				return nil
			}
		}
	}
	types := append(sys.Env.Types()[:x:x], sys.Env.Types()[x+1:]...)
	env, err := spec.NewEnvironment(types...)
	if err != nil {
		return nil
	}
	c := sys.Clone()
	c.Env = env
	c.Replicas = append(c.Replicas[:x:x], c.Replicas[x+1:]...)
	for _, f := range c.Flows {
		for _, p := range f.Profiles {
			delete(p.Load, name)
		}
	}
	return c
}

// roundSystem rounds the surviving rates to two significant digits for
// readable reproducers, preserving each type's service scv so the
// simulator distribution mapping still applies. Returns nil when
// rounding changes nothing.
func roundSystem(sys *System) *System {
	c := sys.Clone()
	changed := false
	round := func(v float64) float64 {
		if !(v > 0) || math.IsInf(v, 0) {
			return v
		}
		mag := math.Pow(10, math.Floor(math.Log10(v))-1)
		r := math.Round(v/mag) * mag
		if r != v {
			changed = true
		}
		return r
	}
	types := c.Env.Types()
	for i := range types {
		scv := types[i].ServiceSecondMoment/(types[i].MeanService*types[i].MeanService) - 1
		b := round(types[i].MeanService)
		types[i].MeanService = b
		types[i].ServiceSecondMoment = (1 + round(scv)) * b * b
		if types[i].FailureRate > 0 {
			types[i].FailureRate = round(types[i].FailureRate)
			types[i].RepairRate = round(types[i].RepairRate)
		}
	}
	env, err := spec.NewEnvironment(types...)
	if err != nil {
		return nil
	}
	c.Env = env
	for _, f := range c.Flows {
		f.ArrivalRate = round(f.ArrivalRate)
		for name, p := range f.Profiles {
			p.MeanDuration = round(p.MeanDuration)
			for t, l := range p.Load {
				p.Load[t] = round(l)
			}
			f.Profiles[name] = p
		}
	}
	if !changed {
		return nil
	}
	return c
}
