// Package statechart implements the workflow specification language of
// the paper (Section 3): state charts in the style of Harel, with
// ECA-rule transitions, nested states embedding subworkflows, and
// orthogonal (parallel) components. Charts are the input to the
// statechart→CTMC mapping (package spec) and are directly executable by
// the mini WFMS runtime (package engine).
//
// The structural model mirrors the level of detail the paper's analysis
// needs: each chart is a flat state machine whose states either invoke an
// activity or embed one or more subcharts (more than one subchart in a
// state means orthogonal, parallel execution, as in the Shipment_S state
// of the running e-commerce example). Transitions carry the ECA rule and
// the designer- or audit-trail-estimated branching probability used by
// the stochastic model.
package statechart

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Chart is a workflow (or subworkflow) specification: a finite state
// machine with a distinguished initial state and a single final state.
type Chart struct {
	// Name identifies the chart (workflow type or subworkflow name).
	Name string
	// States holds the chart's states keyed by name.
	States map[string]*State
	// Initial names the initial state.
	Initial string
	// Final names the single final state (no outgoing transitions).
	Final string
	// Transitions is the chart's transition list.
	Transitions []*Transition
}

// State is a state of a chart. Exactly one of the following holds:
// it is the initial or final pseudo-activity state (Activity == "" and
// Subcharts empty), it invokes an activity (Activity != ""), or it embeds
// subcharts (len(Subcharts) >= 1; more than one means parallel execution
// of orthogonal components).
type State struct {
	// Name is the state's name, unique within the chart.
	Name string
	// Activity names the invoked activity type, if any.
	Activity string
	// Subcharts holds nested subworkflow specifications. Multiple
	// entries are orthogonal components executed in parallel.
	Subcharts []*Chart
	// Interactive marks the activity as executed on a client machine
	// via a worklist, so no application server is involved (second part
	// of the paper's Figure 1).
	Interactive bool
}

// ActionKind enumerates the primitive actions of an ECA rule.
type ActionKind int

const (
	// ActionStart starts an activity: st!(activity).
	ActionStart ActionKind = iota
	// ActionSetTrue sets a condition variable to true: st!(C).
	ActionSetTrue
	// ActionSetFalse sets a condition variable to false: fs!(C).
	ActionSetFalse
	// ActionRaise raises an event.
	ActionRaise
)

// Action is one primitive action of an ECA rule.
type Action struct {
	Kind   ActionKind
	Target string
}

// Transition is an edge of the chart annotated with an ECA rule of the
// form E[C]/A and a branching probability for the stochastic model.
type Transition struct {
	From, To string
	// Event is the triggering event E; empty means the transition is
	// triggered by any step in which the condition holds.
	Event string
	// Cond is the guarding condition variable C; a leading '!' negates
	// it; empty means true.
	Cond string
	// Actions is the action list A.
	Actions []Action
	// Prob is the probability that an instance leaving From takes this
	// transition. The probabilities of all transitions leaving a state
	// must sum to one.
	Prob float64
}

// ECA renders the transition's rule in the paper's E[C]/A notation.
func (t *Transition) ECA() string {
	s := t.Event
	if t.Cond != "" {
		s += "[" + t.Cond + "]"
	}
	if len(t.Actions) > 0 {
		s += "/"
		for i, a := range t.Actions {
			if i > 0 {
				s += ";"
			}
			switch a.Kind {
			case ActionStart:
				s += "st!(" + a.Target + ")"
			case ActionSetTrue:
				s += "st!(" + a.Target + ")"
			case ActionSetFalse:
				s += "fs!(" + a.Target + ")"
			case ActionRaise:
				s += a.Target + "!"
			}
		}
	}
	return s
}

// Validate checks the structural invariants the stochastic mapping
// relies on:
//
//   - initial and final states exist; the final state has no outgoing
//     transitions; the initial state has at least one;
//   - every transition references existing states and has Prob in (0,1];
//   - outgoing probabilities of every non-final state sum to one;
//   - the final state is reachable from the initial state;
//   - subcharts validate recursively, and chart names are unique along
//     any nesting path (no recursive workflows).
func (c *Chart) Validate() error {
	return c.validate(make([]string, 0, 8))
}

// validate checks c inside the charts on onPath over its states indexed
// in StateNames order, so an error's state does not depend on map order.
func (c *Chart) validate(onPath []string) error {
	if c.Name == "" {
		return fmt.Errorf("statechart: chart has no name")
	}
	if slices.Contains(onPath, c.Name) {
		return fmt.Errorf("statechart: chart %q nests itself (recursive workflows are not supported)", c.Name)
	}
	onPath = append(onPath, c.Name)

	if len(c.States) == 0 {
		return fmt.Errorf("statechart: chart %q has no states", c.Name)
	}
	if _, ok := c.States[c.Initial]; !ok {
		return fmt.Errorf("statechart: chart %q initial state %q not found", c.Name, c.Initial)
	}
	if _, ok := c.States[c.Final]; !ok {
		return fmt.Errorf("statechart: chart %q final state %q not found", c.Name, c.Final)
	}
	names := c.StateNames()
	for _, name := range names {
		s := c.States[name]
		if s.Name != name {
			return fmt.Errorf("statechart: chart %q state keyed %q has Name %q", c.Name, name, s.Name)
		}
		if s.Activity != "" && len(s.Subcharts) > 0 {
			return fmt.Errorf("statechart: chart %q state %q both invokes an activity and embeds subcharts", c.Name, name)
		}
		for _, sub := range s.Subcharts {
			if err := sub.validate(onPath); err != nil {
				return err
			}
		}
	}

	final, mid := 0, names[1:]
	if c.Final != c.Initial {
		final, mid = len(names)-1, mid[:len(mid)-1]
	}
	index := func(name string) (int, bool) {
		switch name {
		case c.Initial:
			return 0, true
		case c.Final:
			return final, true
		}
		i, ok := slices.BinarySearch(mid, name)
		return i + 1, ok
	}
	// Transitions by source: head[i] is 1 + the last one leaving state i
	// (0: none), next[t] 1 + the one before t; to[t] is t's target.
	n, m := len(names), len(c.Transitions)
	outProb, buf := make([]float64, n), make([]int, 3*n+2*m)
	head, seen, next, to := buf[:n], buf[n:2*n], buf[2*n:2*n+m], buf[2*n+m:2*n+2*m]
	for i, t := range c.Transitions {
		from, ok := index(t.From)
		if !ok {
			return fmt.Errorf("statechart: chart %q transition %d: unknown source state %q", c.Name, i, t.From)
		}
		if to[i], ok = index(t.To); !ok {
			return fmt.Errorf("statechart: chart %q transition %d: unknown target state %q", c.Name, i, t.To)
		}
		if t.From == c.Final {
			return fmt.Errorf("statechart: chart %q final state %q has an outgoing transition", c.Name, c.Final)
		}
		if t.From == t.To {
			return fmt.Errorf("statechart: chart %q has a self-transition at state %q; model loops with explicit intermediate states", c.Name, t.From)
		}
		if !(t.Prob > 0 && t.Prob <= 1) {
			return fmt.Errorf("statechart: chart %q transition %q→%q has probability %v, want (0,1]", c.Name, t.From, t.To, t.Prob)
		}
		outProb[from] += t.Prob
		next[i], head[from] = head[from], i+1
	}
	for i, name := range names {
		switch {
		case i == final:
		case head[i] == 0:
			return fmt.Errorf("statechart: chart %q state %q is a dead end (no outgoing transitions and not final)", c.Name, name)
		case math.Abs(outProb[i]-1) > 1e-9:
			return fmt.Errorf("statechart: chart %q state %q outgoing probabilities sum to %v, want 1", c.Name, name, outProb[i])
		}
	}
	// Is the final state reachable? A walk over the index, O(S+T).
	seen[0] = 1
	for queue := append(buf[2*n+2*m:2*n+2*m], 0); len(queue) > 0; queue = queue[1:] {
		if queue[0] == final {
			return nil
		}
		for t := head[queue[0]] - 1; t >= 0; t = next[t] - 1 {
			if seen[to[t]] == 0 {
				seen[to[t]] = 1
				queue = append(queue, to[t])
			}
		}
	}
	return fmt.Errorf("statechart: chart %q final state %q unreachable from initial state %q", c.Name, c.Final, c.Initial)
}

// StateNames returns the chart's state names sorted with the initial
// state first, the final state last, and the rest alphabetical. This
// fixed order is what the CTMC mapping uses for state indices, making
// model matrices reproducible.
func (c *Chart) StateNames() []string {
	out := make([]string, 1, len(c.States)+1)
	out[0] = c.Initial
	for name := range c.States {
		if name != c.Initial && name != c.Final {
			out = append(out, name)
		}
	}
	sort.Strings(out[1:])
	if c.Final != c.Initial {
		out = append(out, c.Final)
	}
	return out
}

// Outgoing returns the transitions leaving the named state, in
// declaration order.
func (c *Chart) Outgoing(state string) []*Transition {
	var out []*Transition
	for _, t := range c.Transitions {
		if t.From == state {
			out = append(out, t)
		}
	}
	return out
}

// Activities returns the set of activity type names referenced anywhere
// in the chart, including nested subcharts, sorted alphabetically.
func (c *Chart) Activities() []string {
	out := c.appendActivities(make([]string, 0, len(c.States)))
	slices.Sort(out)
	return slices.Compact(out)
}

func (c *Chart) appendActivities(out []string) []string {
	for _, s := range c.States {
		if s.Activity != "" {
			out = append(out, s.Activity)
		}
		for _, sub := range s.Subcharts {
			out = sub.appendActivities(out)
		}
	}
	return out
}
