package performability

import (
	"context"
	"sync"
	"testing"

	"performa/internal/avail"
	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/workload"
)

// TestEvaluatorMatchesPackageEvaluate pins the long-lived evaluator to
// the one-shot package function: same waiting vector, availability, and
// state accounting, bit for bit.
func TestEvaluatorMatchesPackageEvaluate(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	for _, policy := range []SaturationPolicy{Strict, ExcludeDown} {
		opts := Options{Policy: policy}
		ev, err := NewEvaluator(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, y := range [][]int{{1, 1, 1}, {2, 2, 2}, {2, 2, 3}, {3, 3, 3}} {
			cfg := perf.Config{Replicas: y}
			want, err := Evaluate(a, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ev.Evaluate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, policy.String(), want, got)
		}
	}
}

// supportLevels returns Σ_x |{j : π_x(j) > 0}| over the types whose
// (x, Y_x) pair is not yet in seen, from marginals solved outside the
// evaluator, and adds those pairs to seen.
func supportLevels(t *testing.T, a *perf.Analysis, y []int, discipline avail.RepairDiscipline, seen map[[2]int]bool) uint64 {
	t.Helper()
	params, err := avail.ParamsFromEnvironment(a.Env(), y)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for x, p := range params {
		if seen[[2]int{x, y[x]}] {
			continue
		}
		seen[[2]int{x, y[x]}] = true
		pi, err := avail.TypeMarginal(p, discipline)
		if err != nil {
			t.Fatal(err)
		}
		for _, pj := range pi {
			if pj > 0 {
				n++
			}
		}
	}
	return n
}

// TestEvaluatorWarmCacheIdentical: re-evaluating against the warm
// marginal cache and term table reproduces the first results exactly
// and solves no new marginal. An evaluation reduces Σ_x |{j : π_x(j) > 0}|
// level waiting times over the (type, replicas) pairs no earlier
// evaluation reached, and a repeated one reduces none.
func TestEvaluatorWarmCacheIdentical(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	ev, err := NewEvaluator(a, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []perf.Config{
		{Replicas: []int{2, 2, 3}},
		{Replicas: []int{3, 3, 3}},
		{Replicas: []int{2, 3, 3}},
	}
	first := make([]*Result, len(cfgs))
	seen := map[[2]int]bool{}
	for i, cfg := range cfgs {
		before := ev.Stats()
		if first[i], err = ev.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
		want := supportLevels(t, a, cfg.Replicas, avail.IndependentRepair, seen)
		if d := ev.Stats().Sub(before); d.Misses != want || d.Hits != 0 {
			t.Errorf("%v: first evaluation counted %+v, want %d level computations and no hits", cfg, d, want)
		}
	}
	marginals := ev.Marginals().Size()
	for i, cfg := range cfgs {
		before := ev.Stats()
		again, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, cfg.String(), first[i], again)
		if d := ev.Stats().Sub(before); d.Misses != 0 {
			t.Errorf("%v: repeated evaluation counted %d level computations, want 0 (every term tabulated)", cfg, d.Misses)
		}
	}
	if got := ev.Marginals().Size(); got != marginals {
		t.Errorf("repeated evaluations grew the marginal cache from %d to %d", marginals, got)
	}
	if ev.CachedStates() != 0 {
		t.Errorf("CachedStates = %d, want 0 (nothing is cached per state)", ev.CachedStates())
	}
}

// TestEvaluateConcurrentBitIdentical: concurrent evaluations on one
// evaluator (cold marginal cache, so the goroutines race to fill it)
// all equal the sequential result bit for bit.
func TestEvaluateConcurrentBitIdentical(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	cfg := perf.Config{Replicas: []int{3, 3, 4}}
	for _, policy := range []SaturationPolicy{Strict, ExcludeDown} {
		opts := Options{Policy: policy}
		want, err := Evaluate(a, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		got := make([]*Result, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g], errs[g] = ev.Evaluate(cfg)
			}(g)
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			assertResultsIdentical(t, policy.String(), want, got[g])
		}
	}
}

// TestEvaluateAllocationCeiling: a warm evaluation allocates the result
// and its slices (result, config copy, two waiting vectors) and nothing
// per level, per state or per
// type term (the terms Reduce folds live on the stack), on the failing
// three-type system and on the paper's system (EP and order mix) under
// every policy.
func TestEvaluateAllocationCeiling(t *testing.T) {
	env := failingEnv(t)
	paperEnv := workload.PaperEnvironment()
	models, err := spec.BuildAll([]*spec.Workflow{workload.EPWorkflow(5), workload.OrderWorkflow(3)}, paperEnv)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := perf.NewAnalysis(paperEnv, models)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a        *perf.Analysis
		replicas []int
	}{
		{analysis(t, env, 1), []int{6, 6, 6}},
		{paper, []int{2, 2, 3}},
	}
	for _, c := range cases {
		for _, policy := range []SaturationPolicy{Strict, Penalty, ExcludeDown} {
			ev, err := NewEvaluator(c.a, Options{Policy: policy, PenaltyValue: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := perf.Config{Replicas: c.replicas}
			ctx := context.Background()
			if _, err := ev.EvaluateContext(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := ev.EvaluateContext(ctx, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 4 {
				t.Errorf("%v at %v: warm EvaluateContext allocates %v objects, want ≤ 4", policy, c.replicas, allocs)
			}
		}
	}
}

func assertResultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Availability != want.Availability {
		t.Errorf("%s: availability %v != %v", label, got.Availability, want.Availability)
	}
	if got.DegradationShare != want.DegradationShare {
		t.Errorf("%s: degradation share %v != %v", label, got.DegradationShare, want.DegradationShare)
	}
	if got.StatesEvaluated != want.StatesEvaluated {
		t.Errorf("%s: states evaluated %d != %d", label, got.StatesEvaluated, want.StatesEvaluated)
	}
	if len(got.Waiting) != len(want.Waiting) {
		t.Fatalf("%s: waiting arity %d != %d", label, len(got.Waiting), len(want.Waiting))
	}
	for x := range want.Waiting {
		if got.Waiting[x] != want.Waiting[x] {
			t.Errorf("%s: W[%d] = %v, want %v (bit-identical)", label, x, got.Waiting[x], want.Waiting[x])
		}
		if got.FullUpWaiting[x] != want.FullUpWaiting[x] {
			t.Errorf("%s: full-up w[%d] = %v, want %v", label, x, got.FullUpWaiting[x], want.FullUpWaiting[x])
		}
	}
}
