package ctmc

import (
	"fmt"
	"math"

	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// Gauss–Seidel budget of the absorption kernel: the update between two
// sweeps must drop below absorbTol relative to the largest solution
// entry within absorbMaxSweeps sweeps. Ordered sweeps make acyclic
// chains exact after the first sweep (the second only confirms a zero
// update), and a loop of return probability p converges like p^sweeps,
// so the budget runs out only for p within ~3e-3 of one.
const (
	absorbTol       = 1e-13
	absorbMaxSweeps = 10_000
)

// successorsFirst orders the transient states so that, back arcs of
// loops aside, every state comes after all of its successors: the DFS
// post-order from state 0, continued from any state state 0 cannot
// reach. The DFS keeps an explicit stack so marking graphs of hundreds
// of thousands of states do not recurse.
func (c *Chain) successorsFirst() []int {
	abs := c.Absorbing()
	order := make([]int, 0, abs)
	seen := make([]bool, c.N())
	seen[abs] = true
	type frame struct{ state, arc int }
	var stack []frame
	for root := 0; root < abs; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{state: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if arcs := c.Arcs[f.state]; f.arc < len(arcs) {
				to := arcs[f.arc].To
				f.arc++
				if !seen[to] {
					seen[to] = true
					stack = append(stack, frame{state: to})
				}
				continue
			}
			order = append(order, f.state)
			stack = stack[:len(stack)-1]
		}
	}
	return order
}

// reversed returns the incoming arcs of every state: reversed()[j] holds
// {To: i, Prob: p_ij} for each arc i → j, sorted by i.
func (c *Chain) reversed() [][]Arc {
	in := make([][]Arc, c.N())
	for i, arcs := range c.Arcs {
		for _, a := range arcs {
			in[a.To] = append(in[a.To], Arc{To: i, Prob: a.Prob})
		}
	}
	return in
}

// Absorb solves x = rhs + P·x over the transient states, with x fixed
// at zero in the absorbing state: the expected total of rhs collected
// along a path from each state until absorption (rhs = H gives the
// first-passage times of Section 4.1). It does not validate the chain,
// so callers with zero-residence states (the vanishing markings of a
// workflow net) can use it after checking Stuck themselves.
func (c *Chain) Absorb(rhs linalg.Vector) (linalg.Vector, error) {
	return absorb(c.Arcs, rhs, c.successorsFirst())
}

// absorb is the one absorption solve: Gauss–Seidel on x = rhs + A·x,
// where row i of A is rows[i], sweeping the states listed in order and
// leaving every other entry of x at zero. With the chain's arcs as rows
// and successors first, x_i is computed from finished values except
// across back arcs; with the reversed arcs and the opposite order the
// same holds for the transposed (visit-count) system. When the sweep
// budget runs out the system is solved directly by LU if it fits the
// dense budget, and the fallback is recorded in the solver counters.
func absorb(rows [][]Arc, rhs linalg.Vector, order []int) (linalg.Vector, error) {
	x := linalg.NewVector(len(rows))
	for sweep := 1; sweep <= absorbMaxSweeps; sweep++ {
		var delta, scale float64
		for _, i := range order {
			s := rhs[i]
			for _, a := range rows[i] {
				s += a.Prob * x[a.To]
			}
			if d := math.Abs(s - x[i]); d > delta {
				delta = d
			}
			if m := math.Abs(s); m > scale {
				scale = m
			}
			x[i] = s
		}
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			break
		}
		if delta <= absorbTol*math.Max(1, scale) {
			linalg.RecordSolve("gauss_seidel", sweep, false)
			return x, nil
		}
	}

	n := len(rows)
	if wfmserr.Default.CheckMatrixDim("ctmc", n) != nil {
		return nil, wfmserr.New(wfmserr.CodeNoConvergence, "ctmc",
			"absorption solve did not converge and is too large for a direct solve").
			With("sweeps", absorbMaxSweeps).With("states", n)
	}
	a := linalg.Identity(n)
	b := linalg.NewVector(n)
	for _, i := range order {
		b[i] = rhs[i]
		for _, arc := range rows[i] {
			a.Add(i, arc.To, -arc.Prob)
		}
	}
	lu, err := linalg.FactorLU(a)
	if err == nil {
		x, err = lu.Solve(b)
	}
	if err != nil {
		return nil, fmt.Errorf("ctmc: absorption solve: gauss-seidel did not converge and LU failed: %w", err)
	}
	linalg.RecordSolve("lu", 0, true)
	return x, nil
}
