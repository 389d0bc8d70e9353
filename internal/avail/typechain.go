// Package avail implements the availability model of Section 5: the CTMC
// over system states (X_1, ..., X_k) of currently available replicas per
// server type, its steady-state analysis, and the resulting availability
// and downtime metrics.
//
// Two solution paths are provided and cross-checked by tests:
//
//   - the exact joint CTMC the paper prescribes (Section 5.2), whose
//     state space is the mixed-radix encoding of all X ≤ Y;
//   - a product-form path exploiting that failures and repairs of
//     different server types are independent, so the joint steady state
//     factorizes into per-type birth-death marginals. This path also
//     carries the paper's phase-expansion idea (Section 5.1): per-type
//     chains can use Erlang-k repair stages to model non-exponential
//     repair times.
package avail

import (
	"fmt"
	"math"

	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// RepairDiscipline selects how many failed servers of one type can be in
// repair simultaneously.
type RepairDiscipline int

const (
	// IndependentRepair repairs every failed server concurrently (one
	// crew per server). This matches the paper's worked example, whose
	// per-type unavailability is (λ/(λ+μ))^Y.
	IndependentRepair RepairDiscipline = iota
	// SingleCrew repairs one failed server of a type at a time.
	SingleCrew
)

// String returns the discipline's name.
func (d RepairDiscipline) String() string {
	switch d {
	case IndependentRepair:
		return "independent-repair"
	case SingleCrew:
		return "single-crew"
	default:
		return fmt.Sprintf("RepairDiscipline(%d)", int(d))
	}
}

// TypeParams are the availability parameters of one server type.
type TypeParams struct {
	// Replicas is Y_x, the configured number of servers.
	Replicas int
	// FailureRate is λ_x per server; zero means the type never fails.
	FailureRate float64
	// RepairRate is μ_x per repair in progress.
	RepairRate float64
	// RepairStages expands the repair time into an Erlang-k phase
	// sequence with the same mean (Section 5.1's treatment of
	// non-exponential repair times). Zero or one means exponential.
	// Stages beyond one are only supported with SingleCrew, where the
	// crew's single in-progress repair carries the phase.
	//
	// No analogous knob exists for the failure-time shape, on purpose:
	// under independent repair each server is an alternating renewal
	// process whose stationary up-probability is MTTF/(MTTF+MTTR)
	// regardless of either distribution's shape (renewal-reward
	// insensitivity), so Erlang failure phases could not change any
	// metric this package reports. Shape only matters where failed
	// servers contend — i.e. for the repair time under SingleCrew,
	// which is exactly what RepairStages models. Tests
	// (TestErlangSingleServerInsensitivity and
	// TestFailureShapeInsensitivity in the simulator) pin this down.
	RepairStages int
}

func (p TypeParams) validate() error {
	if p.Replicas < 0 {
		return wfmserr.New(wfmserr.CodeInvalidModel, "avail", "negative replica count %d", p.Replicas)
	}
	if p.FailureRate < 0 || math.IsNaN(p.FailureRate) || math.IsInf(p.FailureRate, 0) {
		return wfmserr.New(wfmserr.CodeInvalidModel, "avail", "failure rate %v is not a finite nonnegative number", p.FailureRate)
	}
	if p.RepairRate < 0 || math.IsNaN(p.RepairRate) || math.IsInf(p.RepairRate, 0) {
		return wfmserr.New(wfmserr.CodeInvalidModel, "avail", "repair rate %v is not a finite nonnegative number", p.RepairRate)
	}
	if p.FailureRate > 0 && !(p.RepairRate > 0) {
		return wfmserr.New(wfmserr.CodeInvalidModel, "avail", "failing type needs positive repair rate, got %v", p.RepairRate)
	}
	if p.RepairStages < 0 {
		return wfmserr.New(wfmserr.CodeInvalidModel, "avail", "negative repair stage count %d", p.RepairStages)
	}
	return nil
}

// TypeMarginal computes the steady-state distribution of the number of
// available servers of one type in isolation: P(X = j) for j = 0..Y,
// with the default (auto) solver strategy.
func TypeMarginal(p TypeParams, discipline RepairDiscipline) (linalg.Vector, error) {
	return TypeMarginalSolver(p, discipline, ctmc.SolverAuto)
}

// TypeMarginalSolver is TypeMarginal with an explicit solver strategy
// for the marginals that need a linear solve (the Erlang phase
// expansion; the exponential cases are closed-form either way).
func TypeMarginalSolver(p TypeParams, discipline RepairDiscipline, solver ctmc.SolverStrategy) (linalg.Vector, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if !solver.Valid() {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "avail", "unknown solver strategy %v", solver)
	}
	y := p.Replicas
	// Pre-flight: the marginal itself is a (y+1)-vector, so a single
	// adversarial type with a huge replica count must be rejected before
	// the allocation, not after.
	if err := wfmserr.Default.CheckStates("avail", y+1); err != nil {
		return nil, err
	}
	out := linalg.NewVector(y + 1)
	if y == 0 {
		out[0] = 1
		return out, nil
	}
	if p.FailureRate == 0 {
		out[y] = 1
		return out, nil
	}
	stages := p.RepairStages
	if stages <= 1 {
		return exponentialMarginal(p, discipline)
	}
	if discipline != SingleCrew {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "avail",
			"Erlang repair stages require the single-crew discipline (the phase belongs to the one in-progress repair)")
	}
	return erlangSingleCrewMarginal(p, solver)
}

// exponentialMarginal solves the per-type birth-death chain analytically:
// failure rate from state j is j·λ, repair rate into state j+1 is
// (Y-j)·μ for independent repair or μ for a single crew.
func exponentialMarginal(p TypeParams, discipline RepairDiscipline) (linalg.Vector, error) {
	y := p.Replicas
	lambda, mu := p.FailureRate, p.RepairRate
	if discipline == IndependentRepair {
		// Independent servers: binomial with availability μ/(λ+μ).
		up := mu / (lambda + mu)
		out := linalg.NewVector(y + 1)
		for j := 0; j <= y; j++ {
			out[j] = binom(y, j) * math.Pow(up, float64(j)) * math.Pow(1-up, float64(y-j))
		}
		return out, nil
	}
	// Single crew: birth-death with birth rate μ (j < y) and death rate
	// j·λ. Detailed balance: π_{j-1}·μ = π_j·j·λ ⇒
	// π_j = π_y · y!/j! · (μ/λ)^{j-y} reading downwards from j = y.
	// Extreme λ/μ ratios can overflow the recurrence to +Inf, which
	// leaves nothing normalizable — a typed rejection, not a panic.
	weights := linalg.NewVector(y + 1)
	weights[y] = 1
	for j := y - 1; j >= 0; j-- {
		// π_j = π_{j+1} · (j+1)·λ / μ.
		weights[j] = weights[j+1] * float64(j+1) * lambda / mu
	}
	out, err := weights.Normalized()
	if err != nil {
		return nil, wfmserr.Wrap(err, wfmserr.CodeInvalidModel, "avail",
			"single-crew marginal is not normalizable; failure/repair rates λ=%v, μ=%v are too extreme", lambda, mu)
	}
	return out, nil
}

// erlangSingleCrewMarginal builds the phase-expanded per-type chain:
// states (j, ph) with j available servers and the crew's repair in phase
// ph (0 = idle, only when j = Y; 1..k otherwise). Each stage has rate
// k·μ so the total repair time keeps mean 1/μ. The chain is streamed in
// CSR form (at most three transitions per state), so large expansions
// are bounded by the MaxStates budget, not the dense MaxMatrixDim cap.
func erlangSingleCrewMarginal(p TypeParams, solver ctmc.SolverStrategy) (linalg.Vector, error) {
	y, k := p.Replicas, p.RepairStages
	lambda, mu := p.FailureRate, p.RepairRate
	stageRate := float64(k) * mu

	// State encoding: (j, ph) for j = 0..y-1, ph = 1..k is state
	// j·k + (ph-1); (y, idle) is the last state, y·k — the row the
	// normalized system pins, which is where the mass sits when λ < μ
	// and what lets the Gauss-Seidel sweep converge.
	idx := func(j, ph int) int {
		if j == y {
			return y * k
		}
		return j*k + (ph - 1)
	}
	// Pre-flight: the dimension must be overflow-safe and fit the budget
	// matching the solve path before any allocation happens.
	if y > 0 && k > (1<<60)/y {
		return nil, wfmserr.New(wfmserr.CodeBudgetExceeded, "avail",
			"phase-expanded chain dimension overflows (Y=%d, stages=%d)", y, k)
	}
	n := 1 + y*k
	if solver == ctmc.SolverDense {
		if err := wfmserr.Default.CheckMatrixDim("avail", n); err != nil {
			return nil, err
		}
	} else if err := wfmserr.Default.CheckStates("avail", n); err != nil {
		return nil, err
	}
	q := ctmc.GeneratorCSR(n, func(i int, emit func(to int, rate float64)) {
		if i == y*k {
			// Full state: failures only.
			emit(idx(y-1, 1), float64(y)*lambda)
			return
		}
		j, ph := i/k, i%k+1
		if j > 0 {
			emit(idx(j-1, ph), float64(j)*lambda)
		}
		if ph < k {
			emit(idx(j, ph+1), stageRate)
			return
		}
		// Final stage completes: one server comes back.
		if j+1 == y {
			emit(idx(y, 0), stageRate)
		} else {
			emit(idx(j+1, 1), stageRate)
		}
	})
	// Irreducible by construction: λ, μ > 0 here, so every (j, ph) state
	// drains back to full and is reachable from it.
	pi, err := ctmc.SteadyStateCSR(q, ctmc.SparseOptions{Strategy: solver, AssumeIrreducible: true})
	if err != nil {
		return nil, fmt.Errorf("avail: phase-expanded chain: %w", err)
	}
	out := linalg.NewVector(y + 1)
	out[y] = pi[y*k]
	for j := 0; j < y; j++ {
		for ph := 1; ph <= k; ph++ {
			out[j] += pi[idx(j, ph)]
		}
	}
	return out, nil
}

// binom returns the binomial coefficient C(n, k) as a float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}
