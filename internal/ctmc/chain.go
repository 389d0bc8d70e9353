// Package ctmc implements the continuous-time Markov chain machinery the
// paper's models are built on: absorbing chains describing workflow
// control flow (Section 3), their transient analysis — first-passage
// times, uniformization, taboo probabilities, expected visit counts, and
// Markov reward models (Section 4) — and ergodic chains given by a
// generator matrix with steady-state analysis (Section 5).
package ctmc

import (
	"fmt"
	"math"
	"sort"

	"performa/internal/linalg"
)

// Arc is one outgoing transition of a Chain state.
type Arc struct {
	// To is the target state index.
	To int
	// Prob is the embedded-chain transition probability.
	Prob float64
}

// Chain is an absorbing continuous-time Markov chain describing one
// workflow type. States are indexed 0..N-1; state 0 is the initial state
// and state N-1 is the single artificial absorbing state s_A the paper
// introduces (Section 3.2). The chain is described, as in the paper, by
// the embedded transition probabilities and the vector H of mean state
// residence times; the probabilities are stored sparsely, one arc list
// per state, because a workflow chart has a handful of transitions per
// state, and so do its Erlang stage chain and a net's marking graph.
type Chain struct {
	// Arcs[i] lists the outgoing transitions of state i. The absorbing
	// state's list is empty. AddArc keeps each list sorted by target
	// with one arc per target, which fixes the floating-point summation
	// order of every solve and the branch order of Next.
	Arcs [][]Arc
	// H is the vector of mean residence times H_i > 0 for the
	// transient states; H[A] is ignored (conceptually infinite).
	H linalg.Vector
	// Names optionally labels states for reporting; may be nil.
	Names []string
}

// NewChain returns a chain of n states (the last one absorbing) with no
// transitions and zero residence times, to be filled in via AddArc and H.
func NewChain(n int) *Chain {
	return &Chain{Arcs: make([][]Arc, n), H: linalg.NewVector(n)}
}

// AddArc adds probability p to the transition from → to, keeping the
// arc list sorted by target and merging parallel transitions into one
// arc.
func (c *Chain) AddArc(from, to int, p float64) {
	arcs := c.Arcs[from]
	k := sort.Search(len(arcs), func(k int) bool { return arcs[k].To >= to })
	if k < len(arcs) && arcs[k].To == to {
		arcs[k].Prob += p
		return
	}
	arcs = append(arcs, Arc{})
	copy(arcs[k+1:], arcs[k:])
	arcs[k] = Arc{To: to, Prob: p}
	c.Arcs[from] = arcs
}

// N returns the number of states including the absorbing state.
func (c *Chain) N() int { return len(c.H) }

// Absorbing returns the index of the absorbing state (always the last).
func (c *Chain) Absorbing() int { return c.N() - 1 }

// Name returns the label of state i, falling back to "s<i>".
func (c *Chain) Name(i int) string {
	if c.Names != nil && i < len(c.Names) && c.Names[i] != "" {
		return c.Names[i]
	}
	if i == c.Absorbing() {
		return "s_A"
	}
	return fmt.Sprintf("s%d", i)
}

// Validate checks the structural invariants the models rely on:
// stochastic arc lists for transient states, no arcs out of the
// absorbing state, positive residence times, and reachability of the
// absorbing state from every transient state (so first-passage times
// are finite).
func (c *Chain) Validate() error {
	n := c.N()
	if n < 2 {
		return fmt.Errorf("ctmc: chain needs at least one transient and one absorbing state, got %d states", n)
	}
	if len(c.Arcs) != n {
		return fmt.Errorf("ctmc: chain has %d arc lists for %d states", len(c.Arcs), n)
	}
	abs := c.Absorbing()
	if len(c.Arcs[abs]) != 0 {
		return fmt.Errorf("ctmc: absorbing state %d has %d outgoing arcs", abs, len(c.Arcs[abs]))
	}
	for i := 0; i < abs; i++ {
		var sum float64
		for _, a := range c.Arcs[i] {
			if a.To < 0 || a.To >= n {
				return fmt.Errorf("ctmc: state %d (%s) has an arc to unknown state %d", i, c.Name(i), a.To)
			}
			if a.Prob < 0 || a.Prob > 1 || math.IsNaN(a.Prob) {
				return fmt.Errorf("ctmc: arc %d→%d carries %v, which is not a probability", i, a.To, a.Prob)
			}
			if a.To == i && a.Prob != 0 {
				return fmt.Errorf("ctmc: embedded chain has self-loop at state %d (%s); fold it into the residence time", i, c.Name(i))
			}
			sum += a.Prob
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("ctmc: state %d (%s) outgoing probabilities sum to %v, want 1", i, c.Name(i), sum)
		}
		if !(c.H[i] > 0) || math.IsInf(c.H[i], 0) {
			return fmt.Errorf("ctmc: residence time H[%d] = %v must be positive and finite", i, c.H[i])
		}
	}
	if c.Stuck() >= 0 {
		return fmt.Errorf("ctmc: absorbing state unreachable from some transient state; first-passage times would be infinite")
	}
	return nil
}

// Stuck returns the lowest-indexed state that cannot reach the absorbing
// state along positive-probability arcs, or -1 when every state can
// (backwards BFS from s_A).
func (c *Chain) Stuck() int {
	in := c.reversed()
	abs := c.Absorbing()
	canReach := make([]bool, c.N())
	canReach[abs] = true
	queue := []int{abs}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		for _, a := range in[j] {
			if a.Prob > 0 && !canReach[a.To] {
				canReach[a.To] = true
				queue = append(queue, a.To)
			}
		}
	}
	for i, ok := range canReach {
		if !ok {
			return i
		}
	}
	return -1
}

// MaxRate returns v = max_i v_i = max_i 1/H_i, the uniformization rate
// of Section 4.2.1.
func (c *Chain) MaxRate() float64 {
	var v float64
	for i := 0; i < c.Absorbing(); i++ {
		if r := 1 / c.H[i]; r > v {
			v = r
		}
	}
	return v
}

// Next returns the successor of state for a uniform draw u in [0, 1):
// the first arc, in target order, whose cumulative probability exceeds
// u. Round-off that leaves u beyond the last cumulative sum selects the
// last positive-probability arc.
func (c *Chain) Next(state int, u float64) int {
	var cum float64
	last := c.Absorbing()
	for _, a := range c.Arcs[state] {
		if a.Prob == 0 {
			continue
		}
		cum += a.Prob
		last = a.To
		if u < cum {
			return a.To
		}
	}
	return last
}
