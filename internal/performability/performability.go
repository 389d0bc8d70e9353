// Package performability implements the hierarchical model of Section 6:
// a Markov reward model over the availability CTMC's system states, where
// the reward of a system state is the waiting-time vector of the
// performance model evaluated for that (possibly degraded) state. The
// steady-state expected reward W^Y is the paper's ultimate metric for
// assessing a configuration with failures taken into account.
package performability

import (
	"fmt"

	"performa/internal/avail"
	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/perf"
)

// SaturationPolicy selects how system states with infinite waiting times
// (a saturated or entirely failed server type) enter the expectation.
type SaturationPolicy int

const (
	// ExcludeDown, the zero value, conditions the expectation on the
	// system states in which every needed server type has at least one
	// replica up (and no queue is saturated), reporting the waiting time
	// experienced while the WFMS is operational. The excluded
	// probability mass is reported separately as the unavailability.
	ExcludeDown SaturationPolicy = iota
	// Strict propagates infinities: if any reachable system state has
	// an unstable queue, W^Y is +Inf. This is the literal reading of
	// the Section 6 formula, and it is selected by name.
	Strict
	// Penalty replaces each infinite per-state waiting time with
	// Options.PenaltyValue, modeling a bounded user-visible outage cost
	// (e.g. a timeout) instead of an unbounded queue.
	Penalty
)

// String returns the policy's name.
func (p SaturationPolicy) String() string {
	switch p {
	case Strict:
		return "strict"
	case Penalty:
		return "penalty"
	case ExcludeDown:
		return "exclude-down"
	default:
		return fmt.Sprintf("SaturationPolicy(%d)", int(p))
	}
}

// Options configures the performability evaluation.
type Options struct {
	// Policy selects the saturation handling; the default ExcludeDown
	// is the decomposition Section 7.1 plans with (Strict is the literal
	// model).
	Policy SaturationPolicy
	// PenaltyValue is the substitute waiting time under Penalty.
	PenaltyValue float64
	// Discipline is the repair discipline of the availability model.
	Discipline avail.RepairDiscipline
	// Solver is ignored, like config's Workers: bench/ still sets it.
	Solver ctmc.SolverStrategy
}

func (o Options) validate() error {
	if o.Policy == Penalty && !(o.PenaltyValue > 0) {
		return fmt.Errorf("performability: Penalty policy needs a positive PenaltyValue, got %v", o.PenaltyValue)
	}
	return nil
}

// Result is the performability assessment of one configuration.
type Result struct {
	// Config echoes the evaluated configuration.
	Config perf.Config
	// Waiting is W^Y: the per-type expected waiting time with failures
	// and degraded modes taken into account.
	Waiting []float64
	// FullUpWaiting is the failure-free waiting-time vector w^Y of the
	// complete configuration, for comparison.
	FullUpWaiting []float64
	// Availability is the steady-state availability of the
	// configuration.
	Availability float64
	// DegradationShare is the probability of being in a state other
	// than the fully-up configuration — the mass over which degraded
	// waiting times are averaged.
	DegradationShare float64
	// StatesEvaluated is the number of system states the expectation
	// ranges over: Π_x |{j : π_x(j) > 0}|, saturating at math.MaxInt.
	// The evaluation itself touches only Σ_x of those level counts.
	StatesEvaluated int
}

// MaxWaiting returns the largest per-type expected waiting time, the
// scalar compared against the configuration tool's responsiveness goal.
func (r *Result) MaxWaiting() float64 {
	return linalg.Vector(r.Waiting).Max()
}

// Evaluate computes W^Y = Σ_i π_i · w^i over the availability CTMC's
// system states (Section 6), reduced per server type (see Evaluator).
func Evaluate(a *perf.Analysis, cfg perf.Config, opts Options) (*Result, error) {
	e, err := NewEvaluator(a, opts)
	if err != nil {
		return nil, err
	}
	return e.Evaluate(cfg)
}
