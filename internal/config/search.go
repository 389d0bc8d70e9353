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

	// The engine memoizes assessments (the feasibility probe and the
	// leaf test revisit vectors).
	eng, err := newEngine(a, goals, opts)
	if err != nil {
		return nil, err
	}
	assessCached := func(y []int) (*Assessment, error) { return eng.assess(ctx, y) }

	y := append([]int(nil), lo...)
	var dfs func(x, costSoFar int) error
	dfs = func(x, costSoFar int) error {
		if x == k {
			as, err := assessCached(y)
			if err != nil {
				return err
			}
			if as.Feasible() && costSoFar < bestCost {
				bestCost = costSoFar
				best = as
			}
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
			// Feasibility probe: max out the remaining types.
			probe := append([]int(nil), y[:x+1]...)
			for j := x + 1; j < k; j++ {
				probe = append(probe, hi[j])
			}
			as, err := assessCached(probe)
			if err != nil {
				return err
			}
			if !as.Feasible() {
				continue // no completion with Y_x = v can be feasible
			}
			if err := dfs(x+1, costSoFar+v); err != nil {
				return err
			}
		}
		y[x] = lo[x]
		return nil
	}
	if err := dfs(0, 0); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, wfmserr.New(wfmserr.CodeInfeasible, "config", "no feasible configuration within constraints")
	}
	rec.Config = best.Config.Clone()
	rec.Cost = best.Config.TotalServers()
	rec.Assessment = best
	rec.Evaluations = eng.computed
	return rec, nil
}
