package wfmserr

// Budget is the pre-flight resource budget for a single analysis
// request. It is checked BEFORE any state space is enumerated or matrix
// allocated, so that an adversarial
// or simply over-ambitious model is rejected with a typed error instead
// of exhausting memory or CPU. A zero field disables that check.
type Budget struct {
	// MaxStates caps the size of an enumerated state space: one type's
	// availability levels Y_x + 1 (or phase expansion), or a joint
	// availability space Π_x (Y_x + 1) where one is materialized.
	MaxStates int
	// MaxMatrixDim caps the dimension of any dense linear system
	// (workflow-chart generators including Erlang stage expansion,
	// exact joint availability models, single-crew repair chains).
	MaxMatrixDim int
}

// DefaultBudget returns the stock budget used by the daemon and CLIs.
// The defaults admit every model in the paper's experiments with orders
// of magnitude of headroom. MaxStates sizes the sparse steady-state
// path, whose per-state cost is a handful of CSR entries (~16 bytes
// each) and a few solution vectors: 2^23 states stay in the low
// hundreds of MiB and solve in seconds with the iterative solvers.
// MaxMatrixDim still caps the dense direct path, whose worst admissible
// solve (2048³ ≈ 8.6e9 flops) is around a second of CPU.
func DefaultBudget() Budget {
	return Budget{
		MaxStates:    1 << 23, // 8388608 states on the sparse path
		MaxMatrixDim: 2048,    // dense n×n systems
	}
}

// Default is the process-wide budget applied by entry points that do
// not thread an explicit one. Tests may override it locally.
var Default = DefaultBudget()

// CheckStates validates an enumerated state-space size against the
// budget. n < 0 signals arithmetic overflow during the size product
// and is always rejected.
func (b Budget) CheckStates(op string, n int) error {
	if n < 0 {
		return New(CodeStateSpaceTooLarge, op, "state-space size overflows").With("limit", b.MaxStates)
	}
	if b.MaxStates > 0 && n > b.MaxStates {
		return New(CodeStateSpaceTooLarge, op, "state space exceeds budget").
			With("states", n).With("limit", b.MaxStates)
	}
	return nil
}

// CheckMatrixDim validates a dense linear-system dimension.
func (b Budget) CheckMatrixDim(op string, n int) error {
	if n < 0 {
		return New(CodeBudgetExceeded, op, "matrix dimension overflows").With("limit", b.MaxMatrixDim)
	}
	if b.MaxMatrixDim > 0 && n > b.MaxMatrixDim {
		return New(CodeBudgetExceeded, op, "dense system dimension exceeds budget").
			With("dim", n).With("limit", b.MaxMatrixDim)
	}
	return nil
}
