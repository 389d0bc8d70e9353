package statechart

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// TestValidateMatchesReference holds Validate to referenceValidate, the
// map-based validation it replaced, error text for error text, over
// random charts with random faults: a nested subchart, a name reused
// along the nesting path, a missing or shared initial and final state, a
// transition to or from nowhere, out of the final state, onto itself,
// with a probability out of range, dead ends, sums short of one, and
// unreachable final states.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	var random func(name string, depth int) *Chart
	random = func(name string, depth int) *Chart {
		n := 1 + rng.IntN(10)
		c := &Chart{Name: name, States: map[string]*State{}, Initial: "s0", Final: fmt.Sprint("s", n-1)}
		for i := range n {
			s := &State{Name: fmt.Sprint("s", i)}
			switch rng.IntN(4) {
			case 0:
				s.Activity = "A"
			case 1:
				if depth < 2 {
					sub := fmt.Sprint(name, ".", i)
					if rng.IntN(20) == 0 {
						sub = name
					}
					s.Subcharts = append(s.Subcharts, random(sub, depth+1))
				}
				if rng.IntN(20) == 0 {
					s.Activity = "A"
				}
			}
			c.States[s.Name] = s
		}
		for i := range n - 1 {
			if rng.IntN(12) == 0 {
				continue // a dead end
			}
			outs := 1 + rng.IntN(3)
			for k := range outs {
				to := 1 + rng.IntN(n-1)
				if rng.IntN(2) == 0 && i+1 < n {
					to = i + 1
				}
				prob := 1 / float64(outs)
				if k == 0 && rng.IntN(15) == 0 {
					prob = []float64{0, -1, 1.5, 0.3, math.NaN()}[rng.IntN(5)]
				}
				c.Transitions = append(c.Transitions, &Transition{From: fmt.Sprint("s", i), To: fmt.Sprint("s", to), Prob: prob})
			}
		}
		switch rng.IntN(30) {
		case 0:
			c.Initial = "nowhere"
		case 1:
			c.Final = "nowhere"
		case 2:
			c.Final = c.Initial
		case 3:
			c.Transitions = append(c.Transitions, &Transition{From: c.Final, To: "s0", Prob: 1})
		case 4:
			c.Transitions = append(c.Transitions, &Transition{From: "x", To: "s0", Prob: 1})
		case 5:
			c.Transitions = append(c.Transitions, &Transition{From: "s0", To: "x", Prob: 1})
		case 6:
			c.Name = ""
		case 7:
			c.States = map[string]*State{}
		}
		return c
	}
	valid := 0
	for i := range 20000 {
		c := random("c", 0)
		got, want := c.Validate(), referenceValidate(c, map[string]bool{})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chart %d: Validate says %v, the reference %v", i, got, want)
		}
		if got == nil {
			valid++
		}
	}
	if valid < 1000 {
		t.Fatalf("only %d of 20000 random charts are valid", valid)
	}
}

// referenceValidate is Validate as it was before it indexed states by
// StateNames: maps for the sums, counts and visited states, and an
// O(S·T) reachability walk.
func referenceValidate(c *Chart, onPath map[string]bool) error {
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
			if err := referenceValidate(sub, onPath); err != nil {
				return err
			}
		}
		return nil
	}
	if err := referenceEachState(c, checkState); err != nil {
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
	if err := referenceEachState(c, checkOutgoing); err != nil {
		return err
	}
	if !referenceFinalReachable(c) {
		return fmt.Errorf("statechart: chart %q final state %q unreachable from initial state %q", c.Name, c.Final, c.Initial)
	}
	return nil
}

// eachState runs check on every state in map order, which costs a valid
// chart nothing. Once a state fails, it reruns check in StateNames order,
// the order the CTMC mapping reports in, and returns the first failure,
// so the state an error names does not depend on map order.
func referenceEachState(c *Chart, check func(name string) error) error {
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

func referenceFinalReachable(c *Chart) bool {
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
