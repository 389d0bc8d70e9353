package ctmc

import (
	"fmt"
	"math"

	"performa/internal/linalg"
)

// distributionAt computes the state-probability vector of a validated,
// uniformized chain at time t:
//
//	π(t) = Σ_k Poisson(Λt; k) · π(0) P̄^k
//
// where P̄ is the uniformized one-step matrix including transitions into
// the absorbing state. The powers are evaluated incrementally and the
// Poisson series is truncated once the accumulated weight exceeds
// 1 − 1e-12. This goes beyond the paper's mean-value analysis: it yields
// the full turnaround-time distribution. CDF sweeps and quantile
// bisection validate and uniformize once, not at every time point.
func (u uniformized) distributionAt(t float64) (linalg.Vector, error) {
	if t < 0 || math.IsNaN(t) {
		return nil, fmt.Errorf("ctmc: transient distribution at invalid time %v", t)
	}
	n := u.c.N()
	cur := linalg.NewVector(n)
	cur[0] = 1
	mean := u.rate * t
	if mean == 0 {
		return cur, nil
	}
	out, next := linalg.NewVector(n), linalg.NewVector(n)
	logw := -mean // log Poisson(mean; 0)
	cum := 0.0
	for k := 0; ; k++ {
		if k > 0 {
			logw += math.Log(mean) - math.Log(float64(k))
			u.step(next, cur)
			cur, next = next, cur
		}
		w := math.Exp(logw)
		cum += w
		out.AddScaled(w, cur)
		if cum >= 1-1e-12 {
			break
		}
		// Past the Poisson mode the weights decay geometrically; once
		// they underflow, the remaining mass is round-off and the
		// current iterate approximates the tail.
		if float64(k) > mean && w < 1e-18 {
			break
		}
		if k > 10_000_000 {
			return nil, fmt.Errorf("ctmc: uniformization series did not converge (Λt = %v)", mean)
		}
	}
	// Absorb the truncated tail into the current distribution shape so
	// the result stays a distribution.
	if rest := 1 - cum; rest > 0 {
		out.AddScaled(rest, cur)
	}
	return out, nil
}

// TurnaroundCDF returns P(turnaround ≤ t) for each requested time: the
// probability that the chain has been absorbed by t.
func TurnaroundCDF(c *Chain, times []float64) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	uni := c.uniformize()
	out := make([]float64, len(times))
	for i, t := range times {
		pi, err := uni.distributionAt(t)
		if err != nil {
			return nil, err
		}
		out[i] = pi[c.Absorbing()]
	}
	return out, nil
}

// TurnaroundQuantile returns the time t with P(turnaround ≤ t) ≈ q, by
// bisection on the CDF. q must be in (0, 1).
func TurnaroundQuantile(c *Chain, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("ctmc: quantile level %v must be in (0,1)", q)
	}
	mean, err := MeanTurnaround(c) // validates the chain
	if err != nil {
		return 0, err
	}
	uni := c.uniformize()
	cdfAt := func(t float64) (float64, error) {
		pi, err := uni.distributionAt(t)
		if err != nil {
			return 0, err
		}
		return pi[c.Absorbing()], nil
	}
	// Bracket the quantile.
	lo, hi := 0.0, mean
	for iter := 0; ; iter++ {
		v, err := cdfAt(hi)
		if err != nil {
			return 0, err
		}
		if v >= q {
			break
		}
		lo = hi
		hi *= 2
		if iter > 60 {
			return 0, fmt.Errorf("ctmc: quantile %v not bracketed below %v mean turnarounds", q, hi/mean)
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		v, err := cdfAt(mid)
		if err != nil {
			return 0, err
		}
		if v < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
