package sensitivity

import (
	"context"
	"math"
	"sync"
	"testing"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// testAnalysis mirrors the Section 5.2 example used across the config
// tests: three server types with monthly/weekly/daily failures and a
// single workflow whose activity loads all three.
func testAnalysis(t *testing.T, xi float64) *perf.Analysis {
	t.Helper()
	b, b2 := spec.ExpServiceMoments(0.002)
	mk := func(name string, kind spec.ServerKind, mttf float64) spec.ServerType {
		return spec.ServerType{
			Name: name, Kind: kind,
			MeanService: b, ServiceSecondMoment: b2,
			FailureRate: 1 / mttf, RepairRate: 1.0 / 10,
		}
	}
	env, err := spec.NewEnvironment(
		mk("orb", spec.Communication, 43200),
		mk("eng", spec.Engine, 10080),
		mk("app", spec.Application, 1440),
	)
	if err != nil {
		t.Fatal(err)
	}
	chart := statechart.NewBuilder("wf").
		Initial("init").
		Activity("A", "act").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
	w := &spec.Workflow{
		Name:  "wf",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"act": {Name: "act", MeanDuration: 5,
				Load: map[string]float64{"orb": 2, "eng": 3, "app": 3}},
		},
		ArrivalRate: xi,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testEvaluator(t *testing.T, a *perf.Analysis) *performability.Evaluator {
	t.Helper()
	ev, err := performability.NewEvaluator(a, performability.Options{Policy: performability.ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func testConfig() perf.Config {
	return perf.Config{Replicas: []int{2, 2, 3}}
}

func computeTable(t *testing.T, xi float64) *Table {
	t.Helper()
	a := testAnalysis(t, xi)
	ev := testEvaluator(t, a)
	tab, err := Compute(context.Background(), ev, testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableCoversEveryParameter(t *testing.T) {
	tab := computeTable(t, 1)
	// 3 types × 4 continuous kinds + 1 arrival + 3 replica entries.
	if want := 3*4 + 1 + 3; len(tab.Entries) != want {
		t.Fatalf("table has %d entries, want %d", len(tab.Entries), want)
	}
	seen := map[Kind]int{}
	for _, e := range tab.Entries {
		seen[e.Kind]++
		if e.Method == "failed" {
			t.Errorf("entry %s/%s not evaluable", e.Kind, e.Target)
		}
		if e.Attribution == "" {
			t.Errorf("entry %s/%s has no attribution", e.Kind, e.Target)
		}
		if len(e.DWorkflowDelays) != 1 {
			t.Errorf("entry %s/%s has %d delay derivatives, want 1", e.Kind, e.Target, len(e.DWorkflowDelays))
		}
	}
	for kind, want := range map[Kind]int{
		FailureRate: 3, RepairRate: 3, MeanService: 3,
		ServiceSecondMoment: 3, ArrivalRate: 1, Replicas: 3,
	} {
		if seen[kind] != want {
			t.Errorf("%d %s entries, want %d", seen[kind], kind, want)
		}
	}
	for i := 1; i < len(tab.Entries); i++ {
		if tab.Entries[i].Rank > tab.Entries[i-1].Rank {
			t.Fatal("entries not ranked descending")
		}
	}
	if tab.Summary == "" {
		t.Error("empty summary")
	}
}

// The physics must come out with the right signs: more failures or
// slower service hurt, faster repair helps, and an extra replica never
// hurts either metric.
func TestDerivativeSigns(t *testing.T) {
	tab := computeTable(t, 1)
	for _, e := range tab.Entries {
		switch e.Kind {
		case FailureRate:
			if e.DUnavailability <= 0 {
				t.Errorf("∂unavail/∂λ(%s) = %v, want > 0", e.Target, e.DUnavailability)
			}
		case RepairRate:
			if e.DUnavailability >= 0 {
				t.Errorf("∂unavail/∂μ(%s) = %v, want < 0", e.Target, e.DUnavailability)
			}
		case MeanService, ServiceSecondMoment, ArrivalRate:
			// Max waiting is attained at one type, so another type's
			// service perturbation can leave it flat — the workflow
			// delay sums every type and must strictly increase.
			if e.DWorkflowDelays[0] <= 0 {
				t.Errorf("∂delay/∂%s(%s) = %v, want > 0", e.Kind, e.Target, e.DWorkflowDelays[0])
			}
			if e.DMaxWaiting < 0 {
				t.Errorf("∂W/∂%s(%s) = %v, want ≥ 0", e.Kind, e.Target, e.DMaxWaiting)
			}
		case Replicas:
			if e.DMaxWaiting > 1e-12 {
				t.Errorf("∂W/∂Y(%s) = %v, want ≤ 0", e.Target, e.DMaxWaiting)
			}
			if e.DUnavailability > 1e-15 {
				t.Errorf("∂unavail/∂Y(%s) = %v, want ≤ 0", e.Target, e.DUnavailability)
			}
		}
	}
}

// The warm-cache path must be invisible in the numbers: recomputing one
// derivative by hand with completely fresh evaluators (no shared
// caches) has to agree with the table.
func TestTableMatchesColdRecomputation(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	cfg := testConfig()
	tab, err := Compute(context.Background(), ev, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	freshPoint := func(types []spec.ServerType) (maxW, unav float64) {
		t.Helper()
		env2, err := spec.NewEnvironment(types...)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := perf.NewAnalysis(env2, a.Models())
		if err != nil {
			t.Fatal(err)
		}
		ev2 := testEvaluator(t, a2)
		res, err := ev2.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxWaiting(), 1 - res.Availability
	}

	check := func(kind Kind, x int, set func(*spec.ServerType, float64), get func(spec.ServerType) float64) {
		t.Helper()
		var entry *Entry
		for i := range tab.Entries {
			if tab.Entries[i].Kind == kind && tab.Entries[i].Index == x {
				entry = &tab.Entries[i]
				break
			}
		}
		if entry == nil {
			t.Fatalf("no %s entry for type %d", kind, x)
		}
		if entry.Method != "central" {
			t.Fatalf("%s/%d method = %s, want central", kind, x, entry.Method)
		}
		v := get(a.Env().Type(x))
		h := entry.Step
		up := a.Env().Types()
		set(&up[x], v+h)
		down := a.Env().Types()
		set(&down[x], v-h)
		wP, uP := freshPoint(up)
		wM, uM := freshPoint(down)
		wantW, wantU := (wP-wM)/(2*h), (uP-uM)/(2*h)
		if !closeRel(entry.DMaxWaiting, wantW, 1e-9) {
			t.Errorf("%s/%d ∂W = %v, cold recompute %v", kind, x, entry.DMaxWaiting, wantW)
		}
		if !closeRel(entry.DUnavailability, wantU, 1e-9) {
			t.Errorf("%s/%d ∂unavail = %v, cold recompute %v", kind, x, entry.DUnavailability, wantU)
		}
	}

	check(FailureRate, 2,
		func(s *spec.ServerType, v float64) { s.FailureRate = v },
		func(s spec.ServerType) float64 { return s.FailureRate })
	check(ServiceSecondMoment, 1,
		func(s *spec.ServerType, v float64) { s.ServiceSecondMoment = v },
		func(s spec.ServerType) float64 { return s.ServiceSecondMoment })
	check(MeanService, 0,
		func(s *spec.ServerType, v float64) { s.MeanService = v },
		func(s spec.ServerType) float64 { return s.MeanService })
}

func closeRel(got, want, tol float64) bool {
	if got == want {
		return true
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	return math.Abs(got-want) <= tol*scale
}

// Derived evaluators must share the marginal cache soundly: a
// failure-rate perturbation (one type's marginal changes) and a service
// perturbation (no marginal changes) both agree with fresh evaluators,
// and the base evaluator keeps answering the original model unchanged.
func TestDeriveSharesCachesSoundly(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	cfg := testConfig()
	baseRes, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	perturb := func(set func(*spec.ServerType)) *perf.Analysis {
		types := a.Env().Types()
		set(&types[0])
		env2, err := spec.NewEnvironment(types...)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := perf.NewAnalysis(env2, a.Models())
		if err != nil {
			t.Fatal(err)
		}
		return a2
	}

	// Failure-rate change: exactly the perturbed type's marginal is
	// solved anew, into the cache both evaluators share.
	aFail := perturb(func(s *spec.ServerType) { s.FailureRate *= 2 })
	dFail, err := ev.Derive(aFail)
	if err != nil {
		t.Fatal(err)
	}
	if dFail.Marginals() != ev.Marginals() {
		t.Fatal("derived evaluator does not share the base marginal cache")
	}
	marginals := ev.Marginals().Size()
	gotFail, err := dFail.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Marginals().Size(); got != marginals+1 {
		t.Errorf("failure-rate derive solved %d new marginals, want 1", got-marginals)
	}
	wantFail, err := testEvaluator(t, aFail).Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotFail.Availability != wantFail.Availability || !closeRel(gotFail.MaxWaiting(), wantFail.MaxWaiting(), 0) {
		t.Errorf("failure-rate derive: got A=%v W=%v, fresh A=%v W=%v",
			gotFail.Availability, gotFail.MaxWaiting(), wantFail.Availability, wantFail.MaxWaiting())
	}

	// Service change: every marginal is a hit; the waiting times still
	// agree with a fresh evaluator.
	aSvc := perturb(func(s *spec.ServerType) { s.MeanService *= 2; s.ServiceSecondMoment *= 4 })
	dSvc, err := ev.Derive(aSvc)
	if err != nil {
		t.Fatal(err)
	}
	marginals = ev.Marginals().Size()
	gotSvc, err := dSvc.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Marginals().Size(); got != marginals {
		t.Errorf("service derive solved %d new marginals, want 0", got-marginals)
	}
	wantSvc, err := testEvaluator(t, aSvc).Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !closeRel(gotSvc.MaxWaiting(), wantSvc.MaxWaiting(), 0) {
		t.Errorf("service derive: W=%v, fresh W=%v", gotSvc.MaxWaiting(), wantSvc.MaxWaiting())
	}

	// The base evaluator still answers the original model unchanged.
	again, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Availability != baseRes.Availability || !closeRel(again.MaxWaiting(), baseRes.MaxWaiting(), 0) {
		t.Error("base evaluator results changed after derived evaluations")
	}
}

// Concurrent table computations over one shared evaluator must be
// race-clean and deterministic (the CI runs this under -race).
func TestConcurrentComputeIsConsistent(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	cfg := testConfig()
	const n = 4
	tables := make([]*Table, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab, err := Compute(context.Background(), ev, cfg, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = tab
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if tables[i] == nil || tables[0] == nil {
			t.Fatal("missing table")
		}
		for j := range tables[0].Entries {
			a, b := tables[0].Entries[j], tables[i].Entries[j]
			if a.Kind != b.Kind || a.Index != b.Index || a.DMaxWaiting != b.DMaxWaiting || a.DUnavailability != b.DUnavailability {
				t.Fatalf("table %d entry %d differs: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func TestComputeHonorsCancellation(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, ev, testConfig(), Options{}); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestComputeRejectsArityMismatch(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	if _, err := Compute(context.Background(), ev, perf.Config{Replicas: []int{1, 2}}, Options{}); err == nil {
		t.Fatal("expected arity error")
	}
}
