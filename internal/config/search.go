package config

import (
	"context"
	"fmt"
	"math"

	"performa/internal/dist"
	"performa/internal/perf"
	"performa/internal/wfmserr"
)

// The paper notes that the configuration search "may eventually entail
// full-fledged algorithms for mathematical optimization such as
// branch-and-bound or simulated annealing" (Section 7.2). This file
// implements both as alternatives to the greedy heuristic.
//
// Both exploit (and their correctness depends on) the monotonicity of
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
	rec.Evaluations = int(eng.computed.Load())
	return rec, nil
}

// AnnealingOptions tunes SimulatedAnnealing.
type AnnealingOptions struct {
	// Seed makes runs reproducible.
	Seed uint64
	// Iterations is the total number of proposed moves; zero means
	// 4000.
	Iterations int
	// InitialTemp and FinalTemp bound the geometric cooling schedule
	// in energy units (server counts); zeros mean 8 and 0.05.
	InitialTemp, FinalTemp float64
	// InfeasiblePenalty is the energy cost of violating a goal,
	// per unit of log-scale violation; zero means 50.
	InfeasiblePenalty float64
}

func (o AnnealingOptions) withDefaults() AnnealingOptions {
	if o.Iterations <= 0 {
		o.Iterations = 4000
	}
	if o.InitialTemp <= 0 {
		o.InitialTemp = 8
	}
	if o.FinalTemp <= 0 {
		o.FinalTemp = 0.05
	}
	if o.InfeasiblePenalty <= 0 {
		o.InfeasiblePenalty = 50
	}
	return o
}

// SimulatedAnnealing searches the configuration space with ±1 moves on
// random server types under a geometric cooling schedule. The energy of
// a configuration is its server count plus a penalty proportional to the
// logarithmic violation of each goal, so the walk is guided towards
// feasibility first and cost second. The best feasible configuration
// seen is returned; if none is found the search fails.
//
// Annealing does not certify optimality — it exists for cost landscapes
// the greedy heuristic navigates poorly (tight coupled goals, holes cut
// by Fixed constraints) and as the paper's named alternative.
func SimulatedAnnealing(a *perf.Analysis, goals Goals, cons Constraints, opts Options, sa AnnealingOptions) (*Recommendation, error) {
	return SimulatedAnnealingContext(context.Background(), a, goals, cons, opts, sa)
}

// SimulatedAnnealingContext is SimulatedAnnealing with cancellation: a
// done context stops the walk and returns ctx.Err(), discarding the best
// configuration seen so far.
func SimulatedAnnealingContext(ctx context.Context, a *perf.Analysis, goals Goals, cons Constraints, opts Options, sa AnnealingOptions) (*Recommendation, error) {
	k := a.Env().K()
	if err := goals.validate(k); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	sa = sa.withDefaults()
	lo, hi, err := cons.bounds(k)
	if err != nil {
		return nil, err
	}
	rng := dist.NewRNG(sa.Seed)

	eng, err := newEngine(a, goals, opts)
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{}
	energy := func(as *Assessment) float64 {
		e := float64(as.Config.TotalServers())
		// Log-scale goal violations keep the gradient informative
		// across orders of magnitude.
		for x, w := range as.Perf.Waiting {
			limit := goals.waitingLimit(x)
			if math.IsInf(limit, 1) {
				continue
			}
			if math.IsInf(w, 1) {
				e += sa.InfeasiblePenalty * 4
			} else if w > limit {
				e += sa.InfeasiblePenalty * math.Log(w/limit+1)
			}
		}
		if goals.MaxUnavailability > 0 && as.Unavailability > goals.MaxUnavailability {
			e += sa.InfeasiblePenalty * math.Log(as.Unavailability/goals.MaxUnavailability+1)
		}
		return e
	}
	evaluate := func(y []int) (*Assessment, float64, error) {
		// The memoized engine makes revisits (the annealer walks a small
		// neighbourhood repeatedly) nearly free without changing any
		// result: cached assessments are the exact values a fresh
		// evaluation would produce.
		as, err := eng.assess(ctx, y)
		if err != nil {
			return nil, 0, err
		}
		rec.Evaluations++
		return as, energy(as), nil
	}

	// Start from the constraint floor.
	cur := append([]int(nil), lo...)
	curAs, curE, err := evaluate(cur)
	if err != nil {
		return nil, err
	}
	var best *Assessment
	bestCost := math.MaxInt
	note := func(as *Assessment) {
		if as.Feasible() {
			if c := as.Config.TotalServers(); c < bestCost {
				bestCost = c
				best = as
			}
		}
	}
	note(curAs)

	cooling := math.Pow(sa.FinalTemp/sa.InitialTemp, 1/float64(sa.Iterations))
	temp := sa.InitialTemp
	for iter := 0; iter < sa.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := rng.Intn(k)
		delta := 1
		if rng.Float64() < 0.5 {
			delta = -1
		}
		next := cur[x] + delta
		if next < lo[x] || next > hi[x] {
			temp *= cooling
			continue
		}
		cand := append([]int(nil), cur...)
		cand[x] = next
		candAs, candE, err := evaluate(cand)
		if err != nil {
			return nil, err
		}
		note(candAs)
		if candE <= curE || rng.Float64() < math.Exp((curE-candE)/temp) {
			cur, curE = cand, candE
		}
		temp *= cooling
	}
	if best == nil {
		return nil, fmt.Errorf("config: simulated annealing found no feasible configuration in %d iterations", sa.Iterations)
	}
	rec.Config = best.Config.Clone()
	rec.Cost = best.Config.TotalServers()
	rec.Assessment = best
	return rec, nil
}
