package config

import (
	"errors"
	"math"
	"testing"

	"performa/internal/crossval"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/wfmserr"
)

// strictNaNSystem is a generated system in which workflow 0 never calls
// some server type. Under Strict every type waits +Inf, so the delay sum
// must skip the unused type instead of forming 0·Inf = NaN, which
// compares false against every limit and let the goal pass.
func strictNaNSystem(t *testing.T) (*perf.Analysis, Goals, Options) {
	t.Helper()
	sys, err := crossval.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	models, err := spec.BuildAll(sys.Flows, sys.Env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := perf.NewAnalysis(sys.Env, models)
	if err != nil {
		t.Fatal(err)
	}
	unused := false
	for _, r := range a.WorkflowRequests(0) {
		unused = unused || r == 0
	}
	if !unused {
		t.Fatal("workflow 0 of generated system 5 calls every server type; the regression needs one it skips")
	}
	delays := make([]float64, len(models))
	delays[0] = 1
	return a, Goals{PerWorkflowMaxDelay: delays},
		Options{Performability: performability.Options{Policy: performability.Strict}}
}

func TestStrictWorkflowDelayIsInfNotNaN(t *testing.T) {
	a, goals, opts := strictNaNSystem(t)
	cfg := perf.Config{Replicas: make([]int, a.Env().K())}
	for x := range cfg.Replicas {
		cfg.Replicas[x] = 1
	}
	as, err := Assess(a, cfg, goals, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := as.WorkflowDelays[0]; !math.IsInf(d, 1) {
		t.Errorf("workflow 0 delay = %v under Strict, want +Inf", d)
	}
	if as.Feasible() {
		t.Errorf("assessment %v with delays %v is feasible", cfg, as.WorkflowDelays)
	}
	rec, err := Greedy(a, goals, Constraints{}, opts)
	if !errors.Is(err, wfmserr.ErrInfeasible) {
		t.Fatalf("Greedy = %v, %v; want the typed infeasible error", rec, err)
	}
}
