package wfmserr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestSentinelMatchingByCode(t *testing.T) {
	err := New(CodeStateSpaceTooLarge, "ctmc", "space of %d states", 1<<40).With("states", 1<<40)
	if !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Fatalf("errors.Is(err, ErrStateSpaceTooLarge) = false for %v", err)
	}
	if errors.Is(err, ErrInvalidModel) {
		t.Fatalf("errors.Is matched the wrong sentinel for %v", err)
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if !errors.Is(wrapped, ErrStateSpaceTooLarge) {
		t.Fatalf("sentinel match lost through fmt.Errorf wrapping")
	}
}

func TestWrapPreservesCause(t *testing.T) {
	cause := context.DeadlineExceeded
	err := Wrap(cause, CodeBudgetExceeded, "performability", "solve interrupted")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("wrapped error lost its code")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wrapped error hid context.DeadlineExceeded")
	}
	if CodeOf(err) != CodeBudgetExceeded {
		t.Fatalf("CodeOf = %q, want %q", CodeOf(err), CodeBudgetExceeded)
	}
}

func TestCodeOfUntyped(t *testing.T) {
	if c := CodeOf(errors.New("plain")); c != "" {
		t.Fatalf("CodeOf(plain) = %q, want empty", c)
	}
}

func TestErrorStringIncludesDetail(t *testing.T) {
	err := New(CodeBudgetExceeded, "ctmc", "too much work").With("steps", 42).With("limit", 10)
	s := err.Error()
	for _, want := range []string{"ctmc:", "too much work", "steps=42", "limit=10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Error() = %q missing %q", s, want)
		}
	}
}

func TestDescribe(t *testing.T) {
	err := New(CodeInvalidModel, "wfjson", "bad rate")
	if got := Describe(err); !strings.HasPrefix(got, "[invalid_model] ") {
		t.Fatalf("Describe = %q, want [invalid_model] prefix", got)
	}
	if got := Describe(errors.New("plain")); got != "plain" {
		t.Fatalf("Describe(plain) = %q", got)
	}
}

func TestBudgetChecks(t *testing.T) {
	b := Budget{MaxStates: 10, MaxMatrixDim: 5}
	if err := b.CheckStates("t", 10); err != nil {
		t.Fatalf("CheckStates at limit: %v", err)
	}
	if err := b.CheckStates("t", 11); !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Fatalf("CheckStates over limit = %v, want ErrStateSpaceTooLarge", err)
	}
	if err := b.CheckStates("t", -1); !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Fatalf("CheckStates overflow = %v, want ErrStateSpaceTooLarge", err)
	}
	if err := b.CheckMatrixDim("t", 6); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("CheckMatrixDim over limit = %v, want ErrBudgetExceeded", err)
	}
	var zero Budget
	if err := zero.CheckStates("t", 1<<50); err != nil {
		t.Fatalf("zero budget should disable checks, got %v", err)
	}
}
