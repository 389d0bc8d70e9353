package config

import (
	"context"
	"math"

	"performa/internal/perf"
	"performa/internal/wfmserr"
)

// The paper notes that the configuration search "may eventually entail
// full-fledged algorithms for mathematical optimization such as
// branch-and-bound or simulated annealing" (Section 7.2). This file
// implements branch-and-bound as the certified alternative to the greedy
// heuristic.
//
// It exploits (and its correctness depends on) the monotonicity of
// the models: adding a replica to any server type never worsens any
// waiting time or the availability, so feasibility is upward-closed in
// the replication vector.

// BranchAndBound finds the minimum-cost feasible configuration by
// depth-first search over replication vectors with two prunings:
//
//   - cost bound: a partial assignment whose cost plus the remaining
//     types' lower bounds cannot beat the incumbent is cut;
//   - feasibility bound: if the partial assignment is infeasible even
//     with every remaining type at its upper bound, no completion can be
//     feasible (monotonicity) and the subtree is cut.
//
// It returns the same optimum as Exhaustive with far fewer evaluations.
func BranchAndBound(a *perf.Analysis, goals Goals, cons Constraints, opts Options) (*Recommendation, error) {
	return BranchAndBoundContext(context.Background(), a, goals, cons, opts)
}

// BranchAndBoundContext is BranchAndBound with cancellation: a done
// context unwinds the depth-first search and returns ctx.Err(),
// discarding the incumbent.
func BranchAndBoundContext(ctx context.Context, a *perf.Analysis, goals Goals, cons Constraints, opts Options) (*Recommendation, error) {
	k := a.Env().K()
	if err := goals.validate(k); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	lo, hi, err := cons.bounds(k)
	if err != nil {
		return nil, err
	}

	rec := &Recommendation{}
	bestCost := math.MaxInt
	var best *Assessment
	eng, err := newEngine(a, goals, opts)
	if err != nil {
		return nil, err
	}

	y := append([]int(nil), lo...)
	probe := make([]int, k)
	// dfs assigns type x, given y[:x] and parent, the feasible assessment
	// of y[:x]'s own probe (y[:x] with every later type at its upper
	// bound; nil at the root). Two probes are structural revisits and are
	// not judged again: at x > 0 the probe with v == hi[x] is the
	// parent's, and a leaf is the probe that admitted its last type.
	var dfs func(x, costSoFar int, parent *Assessment) error
	dfs = func(x, costSoFar int, parent *Assessment) error {
		if x == k {
			// The loop below only descends below the incumbent's cost.
			bestCost, best = costSoFar, parent
			return nil
		}
		// Remaining lower-bound cost.
		restLo := 0
		for j := x + 1; j < k; j++ {
			restLo += lo[j]
		}
		for v := lo[x]; v <= hi[x]; v++ {
			if costSoFar+v+restLo >= bestCost {
				break // increasing v only raises the cost
			}
			y[x] = v
			as := parent
			if parent == nil || v != hi[x] {
				// Feasibility probe: max out the remaining types.
				copy(probe, y[:x+1])
				copy(probe[x+1:], hi[x+1:])
				var err error
				if as, err = eng.assess(ctx, probe); err != nil {
					return err
				}
				rec.Evaluations++
			}
			if !as.Feasible() {
				continue // no completion with Y_x = v can be feasible
			}
			if err := dfs(x+1, costSoFar+v, as); err != nil {
				return err
			}
		}
		y[x] = lo[x]
		return nil
	}
	if err := dfs(0, 0, nil); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, wfmserr.New(wfmserr.CodeInfeasible, "config", "no feasible configuration within constraints")
	}
	rec.Config = best.Config.Clone()
	rec.Cost = best.Config.TotalServers()
	rec.Assessment = best
	return rec, nil
}
