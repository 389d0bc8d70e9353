// Package wfmserr defines the error taxonomy for the advisory stack.
//
// Every failure that untrusted input can reach — an over-large degraded
// state space, a degenerate workflow spec, a solver that will not
// converge, a resource budget blown mid-flight — is reported as an
// *Error carrying a machine-readable Code plus structured context, so
// that callers (the wfmsd HTTP server, the CLI tools) can map it to the
// right exit path (4xx/422 response, one-line diagnostic) without
// string matching. Panics remain only for provable internal invariants:
// an *Error is the contract for everything a request can trigger.
package wfmserr

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Code classifies an error for machine consumption. Codes are stable
// identifiers: they appear in HTTP error bodies, /metrics series, and
// CLI diagnostics.
type Code string

const (
	// CodeInvalidModel marks a system model that fails validation:
	// non-finite rates, degenerate transition structure, impossible
	// moments. The request can never succeed as written.
	CodeInvalidModel Code = "invalid_model"
	// CodeStateSpaceTooLarge marks an availability state space (or other
	// enumerated space) whose size exceeds what the encoder or the
	// configured budget admits.
	CodeStateSpaceTooLarge Code = "state_space_too_large"
	// CodeNoConvergence marks an iterative solver that exhausted its
	// iteration allowance without meeting tolerance.
	CodeNoConvergence Code = "no_convergence"
	// CodeBudgetExceeded marks work that was cut off by an explicit
	// resource budget or deadline: the model may be fine, but solving
	// it exceeds what this service is willing to spend.
	CodeBudgetExceeded Code = "budget_exceeded"
	// CodeInfeasible marks a well-formed planning problem whose goals no
	// configuration within the constraints can meet: the search space was
	// exhausted (or provably pruned) without a feasible candidate. The
	// request is valid and the model solvable — the remedy is relaxing the
	// goals or widening the constraints, so the code must be
	// distinguishable from both invalid_model and budget_exceeded.
	CodeInfeasible Code = "infeasible"
	// CodeInvalidRequest marks a request envelope that fails validation
	// before any model is touched: a negative timeout, an empty or
	// oversized batch, an unknown planner name. Distinct from
	// CodeInvalidModel, which concerns the system document itself.
	CodeInvalidRequest Code = "invalid_request"
	// CodePayloadTooLarge marks a request body that exceeds the
	// server's configured byte limit; clients should shrink or split
	// the payload (batch endpoints accept item slices for exactly
	// this).
	CodePayloadTooLarge Code = "payload_too_large"
	// CodeInternal marks a recovered invariant violation — a bug, not
	// a bad request.
	CodeInternal Code = "internal"
)

// Error is a typed, reportable error. Code gives the category, Op the
// failing subsystem ("ctmc", "wfjson", "performability", ...), and
// Detail optional structured context (sizes, limits, state counts).
type Error struct {
	Code   Code
	Op     string
	Detail map[string]any

	msg string
	err error // wrapped cause, if any
}

// Sentinel values for errors.Is matching. Comparing against a sentinel
// matches by Code: errors.Is(err, wfmserr.ErrBudgetExceeded) is true
// for any *Error in err's chain whose Code is CodeBudgetExceeded.
var (
	ErrInvalidModel       = &Error{Code: CodeInvalidModel, msg: "invalid model"}
	ErrStateSpaceTooLarge = &Error{Code: CodeStateSpaceTooLarge, msg: "state space too large"}
	ErrNoConvergence      = &Error{Code: CodeNoConvergence, msg: "no convergence"}
	ErrBudgetExceeded     = &Error{Code: CodeBudgetExceeded, msg: "budget exceeded"}
	ErrInfeasible         = &Error{Code: CodeInfeasible, msg: "goals infeasible within constraints"}
	ErrInvalidRequest     = &Error{Code: CodeInvalidRequest, msg: "invalid request"}
	ErrPayloadTooLarge    = &Error{Code: CodePayloadTooLarge, msg: "payload too large"}
	ErrInternal           = &Error{Code: CodeInternal, msg: "internal error"}
)

// New builds a typed error with a formatted message.
func New(code Code, op, format string, args ...any) *Error {
	return &Error{Code: code, Op: op, msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a code and operation to an existing cause. The cause
// stays reachable through errors.Is/errors.As (including context
// sentinels such as context.DeadlineExceeded).
func Wrap(err error, code Code, op, format string, args ...any) *Error {
	return &Error{Code: code, Op: op, msg: fmt.Sprintf(format, args...), err: err}
}

// With attaches one structured-context key to the error and returns it
// for chaining: wfmserr.New(...).With("states", n).With("limit", max).
func (e *Error) With(key string, value any) *Error {
	if e.Detail == nil {
		e.Detail = make(map[string]any)
	}
	e.Detail[key] = value
	return e
}

func (e *Error) Error() string {
	var b strings.Builder
	if e.Op != "" {
		b.WriteString(e.Op)
		b.WriteString(": ")
	}
	b.WriteString(e.msg)
	if len(e.Detail) > 0 {
		keys := make([]string, 0, len(e.Detail))
		for k := range e.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" (")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%v", k, e.Detail[k])
		}
		b.WriteString(")")
	}
	if e.err != nil {
		b.WriteString(": ")
		b.WriteString(e.err.Error())
	}
	return b.String()
}

func (e *Error) Unwrap() error { return e.err }

// Is matches any *Error target with the same Code, so sentinels work as
// category tests regardless of message or context.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// CodeOf returns the Code of the first *Error in err's chain, or ""
// when the error is untyped.
func CodeOf(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}

// Describe renders err as a one-line diagnostic with its code prefix
// when typed: "[state_space_too_large] ctmc: ...". Untyped errors are
// rendered as-is. Intended for CLI output.
func Describe(err error) string {
	if c := CodeOf(err); c != "" {
		return fmt.Sprintf("[%s] %v", c, err)
	}
	return err.Error()
}
