package performability

import (
	"math"
	"strings"
	"testing"

	"performa/internal/avail"
	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// failingEnv returns three server types with noticeable failure rates so
// degraded states carry real probability mass. Time unit: seconds.
func failingEnv(t *testing.T) *spec.Environment {
	t.Helper()
	b, b2 := spec.ExpServiceMoments(0.05)
	mk := func(name string, kind spec.ServerKind, mttf float64) spec.ServerType {
		return spec.ServerType{
			Name: name, Kind: kind,
			MeanService: b, ServiceSecondMoment: b2,
			FailureRate: 1 / mttf, RepairRate: 1.0 / 600, // 10-minute repairs
		}
	}
	env, err := spec.NewEnvironment(
		mk("orb", spec.Communication, 3600*24*30),
		mk("eng", spec.Engine, 3600*24*7),
		mk("app", spec.Application, 3600*24),
	)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func analysis(t *testing.T, env *spec.Environment, xi float64) *perf.Analysis {
	t.Helper()
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
			"act": {Name: "act", MeanDuration: 10,
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

func TestStrictIsInfiniteWithSingleReplicas(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	res, err := Evaluate(a, perf.Config{Replicas: []int{1, 1, 1}}, Options{Policy: Strict})
	if err != nil {
		t.Fatal(err)
	}
	// With one replica per type, the all-down states are reachable, so
	// the strict expectation is infinite for every loaded type.
	for x, w := range res.Waiting {
		if !math.IsInf(w, 1) {
			t.Errorf("strict W[%d] = %v, want +Inf", x, w)
		}
	}
	if math.IsInf(res.MaxWaiting(), -1) {
		t.Error("MaxWaiting lost infinity")
	}
}

func TestExcludeDownEqualsFullUpAtSingleReplicas(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	res, err := Evaluate(a, perf.Config{Replicas: []int{1, 1, 1}}, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	// The only operational state at Y = (1,1,1) is the fully-up state,
	// so conditioning on operational states reproduces w^Y exactly.
	for x := range res.Waiting {
		if math.Abs(res.Waiting[x]-res.FullUpWaiting[x]) > 1e-12 {
			t.Errorf("W[%d] = %v, full-up %v", x, res.Waiting[x], res.FullUpWaiting[x])
		}
	}
}

func TestExcludeDownDegradationWithReplication(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	res, err := Evaluate(a, perf.Config{Replicas: []int{2, 2, 2}}, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	// Degraded-but-operational states (one replica down) have higher
	// waiting times, so W^Y must exceed the failure-free w^Y for every
	// loaded type.
	for x := range res.Waiting {
		if res.Waiting[x] <= res.FullUpWaiting[x] {
			t.Errorf("W[%d] = %v not above full-up %v", x, res.Waiting[x], res.FullUpWaiting[x])
		}
	}
	for x := range res.Waiting {
		if d := res.Waiting[x] - res.FullUpWaiting[x]; d < 0 {
			t.Errorf("degradation[%d] = %v negative", x, d)
		}
	}
	if res.DegradationShare <= 0 || res.DegradationShare >= 1 {
		t.Errorf("DegradationShare = %v", res.DegradationShare)
	}
	if res.StatesEvaluated < 2 {
		t.Errorf("StatesEvaluated = %d", res.StatesEvaluated)
	}
}

func TestPenaltyPolicyBoundsOutages(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	const penalty = 30.0
	res, err := Evaluate(a, perf.Config{Replicas: []int{1, 1, 1}},
		Options{Policy: Penalty, PenaltyValue: penalty})
	if err != nil {
		t.Fatal(err)
	}
	for x, w := range res.Waiting {
		if math.IsInf(w, 1) {
			t.Errorf("penalty W[%d] is infinite", x)
		}
		if w <= res.FullUpWaiting[x] {
			t.Errorf("penalty W[%d] = %v not above full-up %v", x, w, res.FullUpWaiting[x])
		}
		if w >= penalty {
			t.Errorf("penalty W[%d] = %v should stay below the penalty %v (downtime is rare)", x, w, penalty)
		}
	}
}

func TestDegradationGapShrinksWithReplication(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	var prevGap float64 = math.Inf(1)
	for _, y := range []int{2, 3, 4} {
		res, err := Evaluate(a, perf.Config{Replicas: []int{y, y, y}},
			Options{Policy: ExcludeDown})
		if err != nil {
			t.Fatal(err)
		}
		// The gap is the largest degradation W^Y_x − w^Y_x across types.
		var maxDeg float64
		for x := range res.Waiting {
			if d := res.Waiting[x] - res.FullUpWaiting[x]; d > maxDeg {
				maxDeg = d
			}
		}
		if maxDeg >= prevGap {
			t.Errorf("Y=%d: degradation %v did not shrink from %v", y, maxDeg, prevGap)
		}
		prevGap = maxDeg
	}
}

func TestAvailabilityMatchesAvailPackage(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	cfg := perf.Config{Replicas: []int{2, 2, 3}}
	res, err := Evaluate(a, cfg, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	params, err := avail.ParamsFromEnvironment(env, cfg.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	want, err := avail.EvaluateProductForm(params, avail.IndependentRepair, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Availability-want.Availability) > 1e-12 {
		t.Errorf("availability = %v, avail package says %v", res.Availability, want.Availability)
	}
}

func TestOptionsValidation(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	if _, err := Evaluate(a, perf.Config{Replicas: []int{1, 1, 1}},
		Options{Policy: Penalty}); err == nil || !strings.Contains(err.Error(), "PenaltyValue") {
		t.Errorf("penalty without value: %v", err)
	}
	if _, err := Evaluate(a, perf.Config{Replicas: []int{1, 1}}, Options{}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if Strict.String() != "strict" || Penalty.String() != "penalty" || ExcludeDown.String() != "exclude-down" {
		t.Error("policy strings wrong")
	}
	if got := SaturationPolicy(9).String(); got == "" {
		t.Error("unknown policy empty")
	}
}

func TestSingleCrewDisciplineDegradesMore(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	cfg := perf.Config{Replicas: []int{2, 2, 2}}
	ind, err := Evaluate(a, cfg, Options{Policy: ExcludeDown, Discipline: avail.IndependentRepair})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Evaluate(a, cfg, Options{Policy: ExcludeDown, Discipline: avail.SingleCrew})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Availability >= ind.Availability {
		t.Errorf("single-crew availability %v should be below independent %v", sc.Availability, ind.Availability)
	}
	if sc.MaxWaiting() < ind.MaxWaiting() {
		t.Errorf("single-crew waiting %v should be at least independent %v", sc.MaxWaiting(), ind.MaxWaiting())
	}
}
