package ctmc

import (
	"slices"

	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// FirstPassageTimes computes the mean first-passage time m_iA from every
// transient state into the absorbing state, by solving the linear system
// of Section 4.1:
//
//	-v_i m_iA + Σ_{j≠A,j≠i} q_ij m_jA = -1
//
// which is equivalent to m_iA = H_i + Σ_{j≠A} p_ij m_jA. The returned
// vector has length N with the absorbing entry zero.
func FirstPassageTimes(c *Chain) (linalg.Vector, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.Absorb(c.H)
}

// MeanTurnaround returns R_t, the mean turnaround time of a workflow
// instance: the mean first-passage time from the initial state into the
// absorbing state.
func MeanTurnaround(c *Chain) (float64, error) {
	m, err := FirstPassageTimes(c)
	if err != nil {
		return 0, err
	}
	return m[0], nil
}

// ExpectedVisits computes, for each transient state, the expected number
// of visits before absorption when starting in state 0, by the exact
// linear-system method: n satisfies nᵀ = e_0ᵀ + nᵀ P_T, i.e.
// (I - P_Tᵀ) n = e_0. The initial entry into state 0 counts as a visit.
// The returned vector has length N with the absorbing entry zero.
//
// This is the direct counterpart of the paper's Markov-reward series
// (see ExpectedVisitsSeries); the two agree in the limit z_max → ∞ and
// tests assert their agreement.
func ExpectedVisits(c *Chain) (linalg.Vector, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.visits(c.successorsFirst())
}

// visits solves the transposed system over the incoming arcs, where a
// state's predecessors come first in the reversed (in place) order.
func (c *Chain) visits(order []int) (linalg.Vector, error) {
	slices.Reverse(order)
	e0 := linalg.NewVector(c.N())
	e0[0] = 1
	return absorb(c.reversed(), e0, order)
}

// TurnaroundMoments returns the mean E[T] and variance Var[T] of the
// first-passage time from state 0 into the absorbing state for
// exponential residence times, validating and ordering the chain once
// for both (see TurnaroundAndVisits).
func TurnaroundMoments(c *Chain) (mean, variance float64, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	return c.moments(c.successorsFirst(), nil)
}

// TurnaroundAndVisits returns the mean and variance of the first-passage
// time from state 0 into the absorbing state and the expected visits of
// every state, validating and ordering the chain once for all three.
// second[i] is the residence second moment E[R_i²] of state i; nil means
// exponential residences, 2H_i². The second moments s_i = E[T_i²] satisfy
//
//	s_i = E[R_i²] + 2H_i Σ_j p_ij m_j + Σ_j p_ij s_j
//
// (condition on the residence R_i and the next state): the first-passage
// system again with right-hand side E[R²] + 2H∘(P m), and the variance
// is s_0 - m_0². Mean and visits read only H, so a state whose residence
// is Erlang-k, E[R²] = H²(1 + 1/k), gives the mean, visits and variance
// of the chain that spells its k stages out.
func TurnaroundAndVisits(c *Chain, second linalg.Vector) (mean, variance float64, visits linalg.Vector, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, nil, err
	}
	order := c.successorsFirst()
	if mean, variance, err = c.moments(order, second); err != nil {
		return 0, 0, nil, err
	}
	visits, err = c.visits(order)
	return mean, variance, visits, err
}

// moments solves the first- and second-moment systems of
// TurnaroundAndVisits over a validated chain.
func (c *Chain) moments(order []int, second linalg.Vector) (mean, variance float64, err error) {
	m, err := absorb(c.Arcs, c.H, order)
	if err != nil {
		return 0, 0, err
	}
	rhs := linalg.NewVector(c.N())
	for _, i := range order {
		var next float64 // Σ_j p_ij m_j (m is zero in the absorbing state)
		for _, a := range c.Arcs[i] {
			next += a.Prob * m[a.To]
		}
		r2 := 2 * c.H[i] * c.H[i]
		if second != nil {
			r2 = second[i]
		}
		rhs[i] = r2 + 2*c.H[i]*next
	}
	s, err := absorb(c.Arcs, rhs, order)
	if err != nil {
		return 0, 0, err
	}
	return m[0], s[0] - m[0]*m[0], nil
}

// TurnaroundVariance returns Var[T], the variance of the first-passage
// time from state 0 into the absorbing state (see TurnaroundMoments).
func TurnaroundVariance(c *Chain) (float64, error) {
	_, variance, err := TurnaroundMoments(c)
	return variance, err
}

// SeriesOptions controls the truncated uniformized series of Section
// 4.2.1.
type SeriesOptions struct {
	// ZMax caps the number of uniformized steps. Zero selects the
	// adaptive rule of the paper: stop once the non-absorbed
	// probability mass drops below 1 - Coverage.
	ZMax int
	// Coverage is the probability mass of transition counts the series
	// must cover when ZMax is 0 (the paper suggests 99 percent). Zero
	// means the default 0.9999, which keeps the truncation error well
	// below the model's other approximations.
	Coverage float64
	// HardCap bounds the adaptive rule to protect against chains with
	// near-1 self-loop mass. Zero means 1,000,000 steps.
	HardCap int
}

func (o SeriesOptions) withDefaults() SeriesOptions {
	if o.Coverage <= 0 || o.Coverage >= 1 {
		o.Coverage = 0.9999
	}
	if o.HardCap <= 0 {
		o.HardCap = 1_000_000
	}
	return o
}

// SeriesResult reports the outcome of the truncated-series visit
// computation.
type SeriesResult struct {
	// Visits is the expected visit count per state (length N, absorbing
	// entry zero), including the initial entry into state 0.
	Visits linalg.Vector
	// Steps is the number of uniformized steps z actually summed.
	Steps int
	// ResidualMass is the probability that the process is still
	// unabsorbed after Steps steps — the truncation error indicator.
	ResidualMass float64
}

// uniformized is the chain uniformized at its maximum rate v (Section
// 4.2.1): a discrete-time chain with one-step probabilities
//
//	p̄_ab = (v_a / v) p_ab          for b != a
//	p̄_aa = 1 - v_a / v
//
// in which the absorbing state keeps its mass. Only the jump fractions
// v_a / v are stored; a step walks the arc lists.
type uniformized struct {
	c    *Chain
	rate float64
	jump linalg.Vector
}

func (c *Chain) uniformize() uniformized {
	u := uniformized{c: c, rate: c.MaxRate(), jump: linalg.NewVector(c.N())}
	for a := 0; a < c.Absorbing(); a++ {
		u.jump[a] = 1 / c.H[a] / u.rate
	}
	return u
}

// step advances the distribution src by one uniformized step into dst
// (Chapman-Kolmogorov: dst_b = Σ_a src_a p̄_ab). dst must not alias src.
func (u uniformized) step(dst, src linalg.Vector) {
	dst.Fill(0)
	abs := u.c.Absorbing()
	for a := 0; a < abs; a++ {
		sa := src[a]
		if sa == 0 {
			continue
		}
		dst[a] += sa * (1 - u.jump[a])
		for _, arc := range u.c.Arcs[a] {
			dst[arc.To] += sa * (u.jump[a] * arc.Prob)
		}
	}
	dst[abs] += src[abs]
}

// ExpectedVisitsSeries computes expected visit counts by the paper's
// uniformized taboo-probability recursion (Section 4.2.1): the taboo
// probabilities p̄_0a(z) are iterated via the Chapman-Kolmogorov
// equations, and each step accumulates the expected number of a→b jumps,
// (1/v)·p̄_0a(z)·q_ab, into the visit count of b. The series is truncated
// per opts.
func ExpectedVisitsSeries(c *Chain, opts SeriesOptions) (*SeriesResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	abs := c.Absorbing()
	uni := c.uniformize()

	visits := linalg.NewVector(c.N())
	visits[0] = 1 // the initial entry into state 0

	// u[:abs] holds p̄_0a(z); start with z = 0: all mass on state 0.
	u, next := linalg.NewVector(c.N()), linalg.NewVector(c.N())
	u[0] = 1

	steps := 0
	residual := 1.0
	for z := 0; ; z++ {
		if residual <= 1-opts.Coverage && opts.ZMax == 0 {
			break
		}
		if opts.ZMax > 0 && z >= opts.ZMax {
			break
		}
		if z >= opts.HardCap {
			return nil, wfmserr.New(wfmserr.CodeBudgetExceeded, "ctmc",
				"uniformized series did not absorb %.4g of the mass within the step budget", residual).
				With("steps", opts.HardCap)
		}
		// A real jump a→b (b transient) happens during a uniformized
		// step with probability (v_a/v)·p_ab, so the expected number of
		// entries into b contributed at step z is Σ_a p̄_0a(z)·(v_a/v)·p_ab
		// — exactly the paper's (1/v)·p̄_0a(z)·q_ab.
		for a := 0; a < abs; a++ {
			ua := u[a]
			if ua == 0 {
				continue
			}
			for _, arc := range c.Arcs[a] {
				if arc.To != abs {
					visits[arc.To] += ua * uni.jump[a] * arc.Prob
				}
			}
		}
		uni.step(next, u)
		u, next = next, u
		steps = z + 1
		residual = u[:abs].Sum()
	}
	return &SeriesResult{Visits: visits, Steps: steps, ResidualMass: residual}, nil
}
