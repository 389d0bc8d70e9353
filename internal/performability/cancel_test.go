package performability

import (
	"context"
	"errors"
	"testing"

	"performa/internal/perf"
)

// TestEvaluateContextCanceled pins the cancellation contract: a dead
// context aborts the evaluation with ctx.Err() and no result.
func TestEvaluateContextCanceled(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	ev, err := NewEvaluator(a, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ev.EvaluateContext(ctx, perf.Config{Replicas: []int{2, 2, 3}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled evaluation returned a result")
	}
}

// TestEvaluatorReusableAfterCancel verifies cancellation cannot poison
// the evaluator: a canceled call does no work, and afterwards the same
// evaluator answers bit-identically to a never-canceled one, before and
// after further canceled calls.
func TestEvaluatorReusableAfterCancel(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	cfg := perf.Config{Replicas: []int{3, 3, 4}}

	pristine, err := NewEvaluator(a, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pristine.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ev, err := NewEvaluator(a, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for round := 0; round < 2; round++ {
		before := ev.Stats()
		if _, err := ev.EvaluateContext(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		if d := ev.Stats().Sub(before); d.Misses != 0 {
			t.Errorf("round %d: canceled evaluation computed %d levels", round, d.Misses)
		}
		got, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "after cancel", want, got)
	}
}
