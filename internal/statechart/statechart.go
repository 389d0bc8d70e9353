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
	return c.validate(map[string]bool{})
}

func (c *Chart) validate(onPath map[string]bool) error {
	if c.Name == "" {
		return fmt.Errorf("statechart: chart has no name")
	}
	if onPath[c.Name] {
		return fmt.Errorf("statechart: chart %q nests itself (recursive workflows are not supported)", c.Name)
	}
	onPath[c.Name] = true
	defer delete(onPath, c.Name)

	if len(c.States) == 0 {
		return fmt.Errorf("statechart: chart %q has no states", c.Name)
	}
	if _, ok := c.States[c.Initial]; !ok {
		return fmt.Errorf("statechart: chart %q initial state %q not found", c.Name, c.Initial)
	}
	if _, ok := c.States[c.Final]; !ok {
		return fmt.Errorf("statechart: chart %q final state %q not found", c.Name, c.Final)
	}
	checkState := func(name string) error {
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
		return nil
	}
	if err := c.eachState(checkState); err != nil {
		return err
	}

	outProb := make(map[string]float64)
	outCount := make(map[string]int)
	for i, t := range c.Transitions {
		if _, ok := c.States[t.From]; !ok {
			return fmt.Errorf("statechart: chart %q transition %d: unknown source state %q", c.Name, i, t.From)
		}
		if _, ok := c.States[t.To]; !ok {
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
		outProb[t.From] += t.Prob
		outCount[t.From]++
	}
	checkOutgoing := func(name string) error {
		if name == c.Final {
			return nil
		}
		if outCount[name] == 0 {
			return fmt.Errorf("statechart: chart %q state %q is a dead end (no outgoing transitions and not final)", c.Name, name)
		}
		if math.Abs(outProb[name]-1) > 1e-9 {
			return fmt.Errorf("statechart: chart %q state %q outgoing probabilities sum to %v, want 1", c.Name, name, outProb[name])
		}
		return nil
	}
	if err := c.eachState(checkOutgoing); err != nil {
		return err
	}
	if !c.finalReachable() {
		return fmt.Errorf("statechart: chart %q final state %q unreachable from initial state %q", c.Name, c.Final, c.Initial)
	}
	return nil
}

// eachState runs check on every state in map order, which costs a valid
// chart nothing. Once a state fails, it reruns check in StateNames order,
// the order the CTMC mapping reports in, and returns the first failure,
// so the state an error names does not depend on map order.
func (c *Chart) eachState(check func(name string) error) error {
	for name := range c.States {
		if check(name) == nil {
			continue
		}
		for _, name := range c.StateNames() {
			if err := check(name); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Chart) finalReachable() bool {
	seen := map[string]bool{c.Initial: true}
	queue := []string{c.Initial}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == c.Final {
			return true
		}
		for _, t := range c.Transitions {
			if t.From == s && !seen[t.To] {
				seen[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	return false
}

// StateNames returns the chart's state names sorted with the initial
// state first, the final state last, and the rest alphabetical. This
// fixed order is what the CTMC mapping uses for state indices, making
// model matrices reproducible.
func (c *Chart) StateNames() []string {
	var mid []string
	for name := range c.States {
		if name != c.Initial && name != c.Final {
			mid = append(mid, name)
		}
	}
	sort.Strings(mid)
	out := make([]string, 0, len(c.States))
	out = append(out, c.Initial)
	out = append(out, mid...)
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
	set := map[string]bool{}
	c.collectActivities(set)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (c *Chart) collectActivities(set map[string]bool) {
	for _, s := range c.States {
		if s.Activity != "" {
			set[s.Activity] = true
		}
		for _, sub := range s.Subcharts {
			sub.collectActivities(set)
		}
	}
}
