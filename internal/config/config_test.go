package config

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// paperEnv mirrors the Section 5.2 example (time unit: minutes): monthly,
// weekly, and daily failures with 10-minute repairs, plus light service
// demands so the performance side is exercised too.
func paperEnv(t *testing.T) *spec.Environment {
	t.Helper()
	b, b2 := spec.ExpServiceMoments(0.002) // 0.12 s per request
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
	return env
}

func paperAnalysis(t *testing.T, xi float64) *perf.Analysis {
	t.Helper()
	env := paperEnv(t)
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

func TestGreedyAvailabilityGoalMatchesPaperShape(t *testing.T) {
	a := paperAnalysis(t, 1)
	goals := Goals{MaxUnavailability: 1.5e-6} // ≈ 47 s/year
	rec, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's discussion: 3-way replication of the most unreliable
	// type (app) with 2 replicas elsewhere bounds unavailability below
	// a minute. The greedy should land exactly there.
	want := []int{2, 2, 3}
	for x := range want {
		if rec.Config.Replicas[x] != want[x] {
			t.Errorf("replicas = %v, want %v", rec.Config.Replicas, want)
			break
		}
	}
	if rec.Cost != 7 {
		t.Errorf("cost = %d, want 7", rec.Cost)
	}
	if !rec.Assessment.Feasible() {
		t.Error("recommended configuration not feasible")
	}
	if rec.Assessment.Unavailability > goals.MaxUnavailability {
		t.Errorf("unavailability %v above goal %v", rec.Assessment.Unavailability, goals.MaxUnavailability)
	}
}

func TestGreedyMatchesExhaustiveCost(t *testing.T) {
	a := paperAnalysis(t, 1)
	for _, goals := range []Goals{
		{MaxUnavailability: 1.5e-6},
		{MaxUnavailability: 1e-4},
		{MaxWaiting: 0.001, MaxUnavailability: 1e-4},
		{MaxWaiting: 0.0005, MaxUnavailability: 1e-6},
	} {
		g, err := Greedy(a, goals, Constraints{}, DefaultOptions())
		if err != nil {
			t.Fatalf("greedy %+v: %v", goals, err)
		}
		e, err := Exhaustive(context.Background(), a, goals, Constraints{MaxReplicas: []int{6, 6, 6}}, DefaultOptions())
		if err != nil {
			t.Fatalf("exhaustive %+v: %v", goals, err)
		}
		if g.Cost > e.Cost+1 {
			t.Errorf("goals %+v: greedy cost %d vs exhaustive %d (allowed +1)", goals, g.Cost, e.Cost)
		}
		if g.Cost < e.Cost {
			t.Errorf("goals %+v: greedy cost %d below exhaustive optimum %d — exhaustive is wrong", goals, g.Cost, e.Cost)
		}
	}
}

func TestGreedyPerformanceGoalDrivesBottleneck(t *testing.T) {
	// High arrival rate: the engine/app types (3 requests each) need
	// more replicas than the orb (2 requests).
	a := paperAnalysis(t, 60) // l = (120, 180, 180)/min → ρ at Y=1: .24, .36, .36
	goals := Goals{MaxWaiting: 0.0008}
	rec, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Assessment.PerfOK {
		t.Error("performance goal not met")
	}
	if rec.Assessment.Perf.MaxWaiting() > goals.MaxWaiting {
		t.Errorf("max waiting %v above goal %v", rec.Assessment.Perf.MaxWaiting(), goals.MaxWaiting)
	}
	// The heavier-loaded types must have at least the orb's replicas.
	r := rec.Config.Replicas
	if r[1] < r[0] || r[2] < r[0] {
		t.Errorf("replicas = %v; loaded types should get replicas first", r)
	}
}

func TestGreedyTraceWellFormed(t *testing.T) {
	a := paperAnalysis(t, 1)
	rec, err := Greedy(a, Goals{MaxUnavailability: 1e-4}, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Trace) == 0 {
		t.Fatal("empty trace")
	}
	last := rec.Trace[len(rec.Trace)-1]
	if last.AddedType != -1 {
		t.Errorf("final step added type %d, want -1 (accepted)", last.AddedType)
	}
	for i, s := range rec.Trace[:len(rec.Trace)-1] {
		if s.AddedType < 0 {
			t.Errorf("step %d added no type", i)
		}
		if s.Reason == "" {
			t.Errorf("step %d has no reason", i)
		}
	}
	if rec.Evaluations != len(rec.Trace) {
		t.Errorf("evaluations %d vs trace length %d", rec.Evaluations, len(rec.Trace))
	}
}

func TestGreedyRespectsFixed(t *testing.T) {
	a := paperAnalysis(t, 1)
	rec, err := Greedy(a, Goals{MaxUnavailability: 1e-4},
		Constraints{Fixed: []int{2, -1, -1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Config.Replicas[0] != 2 {
		t.Errorf("fixed type has %d replicas, want 2", rec.Config.Replicas[0])
	}
}

func TestGreedyRespectsMinReplicas(t *testing.T) {
	a := paperAnalysis(t, 1)
	rec, err := Greedy(a, Goals{MaxUnavailability: 1e-4},
		Constraints{MinReplicas: []int{3, 1, 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Config.Replicas[0] < 3 {
		t.Errorf("minimum not respected: %v", rec.Config.Replicas)
	}
}

func TestGreedyUnreachableGoal(t *testing.T) {
	a := paperAnalysis(t, 1)
	_, err := Greedy(a, Goals{MaxUnavailability: 1e-12},
		Constraints{MaxReplicas: []int{2, 2, 2}}, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("err = %v, want unreachable", err)
	}
}

func TestExhaustiveUnreachableGoal(t *testing.T) {
	a := paperAnalysis(t, 1)
	_, err := Exhaustive(context.Background(), a, Goals{MaxUnavailability: 1e-12},
		Constraints{MaxReplicas: []int{2, 2, 2}}, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "no feasible") {
		t.Errorf("err = %v, want no-feasible", err)
	}
}

func TestGoalsValidation(t *testing.T) {
	a := paperAnalysis(t, 1)
	cases := []Goals{
		{},                       // no goal
		{MaxWaiting: -1},         // negative
		{MaxUnavailability: 1.5}, // ≥ 1
		{MaxWaiting: 1, PerTypeMaxWaiting: []float64{1}}, // wrong arity
	}
	for i, g := range cases {
		if _, err := Greedy(a, g, Constraints{}, DefaultOptions()); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestConstraintValidation(t *testing.T) {
	a := paperAnalysis(t, 1)
	goals := Goals{MaxUnavailability: 1e-4}
	cases := []Constraints{
		{MinReplicas: []int{1}},
		{MaxReplicas: []int{1}},
		{Fixed: []int{1}},
		{MinReplicas: []int{-1, 1, 1}},
		{MinReplicas: []int{3, 1, 1}, MaxReplicas: []int{2, 5, 5}},
	}
	for i, c := range cases {
		if _, err := Greedy(a, goals, c, DefaultOptions()); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPerTypeWaitingGoals(t *testing.T) {
	a := paperAnalysis(t, 60)
	goals := Goals{
		MaxWaiting:        0.01,                    // loose default
		PerTypeMaxWaiting: []float64{0.0002, 0, 0}, // tight for orb only
	}
	rec, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Assessment.Perf.Waiting[0] > 0.0002 {
		t.Errorf("orb waiting %v above its per-type goal", rec.Assessment.Perf.Waiting[0])
	}
}

// mixAnalysisForWorkflowGoals builds a two-workflow mix with very
// different type footprints: one engine-heavy, one app-heavy.
func mixAnalysisForWorkflowGoals(t *testing.T) *perf.Analysis {
	t.Helper()
	env := paperEnv(t)
	mk := func(name string, load map[string]float64, xi float64) *spec.Model {
		chart := statechart.NewBuilder(name).
			Initial("init").
			Activity("A", "act-"+name).
			Final("done").
			Transition("init", "A", 1).
			Transition("A", "done", 1).
			MustBuild()
		w := &spec.Workflow{
			Name:  name,
			Chart: chart,
			Profiles: map[string]spec.ActivityProfile{
				"act-" + name: {Name: "act-" + name, MeanDuration: 5, Load: load},
			},
			ArrivalRate: xi,
		}
		m, err := spec.Build(w, env)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	engineHeavy := mk("engineheavy", map[string]float64{"orb": 1, "eng": 20}, 20)
	appHeavy := mk("appheavy", map[string]float64{"orb": 1, "app": 20}, 20)
	a, err := perf.NewAnalysis(env, []*spec.Model{engineHeavy, appHeavy})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPerWorkflowDelayGoals(t *testing.T) {
	a := mixAnalysisForWorkflowGoals(t)
	// Tight delay goal for the engine-heavy workflow only: the greedy
	// must grow the engine type, not the (equally loaded) app type.
	goals := Goals{PerWorkflowMaxDelay: []float64{0.02, 0}}
	rec, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Assessment.WorkflowDelays == nil {
		t.Fatal("workflow delays not populated")
	}
	if rec.Assessment.WorkflowDelays[0] > 0.02 {
		t.Errorf("engine-heavy delay %v above goal", rec.Assessment.WorkflowDelays[0])
	}
	r := rec.Config.Replicas
	if r[1] <= r[2] {
		t.Errorf("replicas = %v; the engine type should have grown, not the app type", r)
	}
}

func TestPerWorkflowDelayGoalArityChecked(t *testing.T) {
	a := mixAnalysisForWorkflowGoals(t)
	goals := Goals{PerWorkflowMaxDelay: []float64{0.02}} // 1 goal, 2 workflows
	if _, err := Greedy(a, goals, Constraints{}, DefaultOptions()); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestPerWorkflowGoalsAloneAreValid(t *testing.T) {
	a := mixAnalysisForWorkflowGoals(t)
	goals := Goals{PerWorkflowMaxDelay: []float64{0.5, 0.5}} // loose
	rec, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost != 3 {
		t.Errorf("cost = %d, want the floor 3 with loose goals", rec.Cost)
	}
}

func TestExhaustiveEnumerationOrder(t *testing.T) {
	// enumerate must produce exactly the compositions of the total.
	var got [][]int
	enumerate([]int{1, 1}, []int{3, 3}, 4, func(y []int) bool {
		got = append(got, append([]int(nil), y...))
		return true
	})
	want := [][]int{{1, 3}, {2, 2}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	calls := 0
	enumerate([]int{0, 0}, []int{5, 5}, 5, func(y []int) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("early stop ignored: %d calls", calls)
	}
}

func TestStrictPolicyIsDocumentedInfeasible(t *testing.T) {
	// Under Strict, any finite configuration has W = +Inf, so a
	// waiting goal can never be met; greedy must terminate with an
	// error rather than loop forever (the availability criterion keeps
	// adding replicas until the iteration cap or constraint wall).
	a := paperAnalysis(t, 1)
	opts := Options{
		Performability: performability.Options{Policy: performability.Strict},
		MaxIterations:  25,
	}
	_, err := Greedy(a, Goals{MaxWaiting: 0.001}, Constraints{MaxReplicas: []int{3, 3, 3}}, opts)
	if err == nil {
		t.Error("strict waiting goal reported feasible")
	}
}

// TestZeroOptionsPlanExcludeDown: the zero Options plan under
// ExcludeDown, exactly as DefaultOptions does; Strict is chosen by name.
func TestZeroOptionsPlanExcludeDown(t *testing.T) {
	a := paperAnalysis(t, 1)
	goals := Goals{MaxWaiting: 0.001, MaxUnavailability: 1e-4}
	zero, err := Greedy(a, goals, Constraints{}, Options{})
	if err != nil {
		t.Fatalf("zero options: %v", err)
	}
	def, err := Greedy(a, goals, Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(zero.Config.Replicas, def.Config.Replicas) || zero.Evaluations != def.Evaluations ||
		zero.Assessment.Perf.MaxWaiting() != def.Assessment.Perf.MaxWaiting() {
		t.Errorf("zero options plan %v (%d evaluations, W %v), DefaultOptions %v (%d, W %v)",
			zero.Config.Replicas, zero.Evaluations, zero.Assessment.Perf.MaxWaiting(),
			def.Config.Replicas, def.Evaluations, def.Assessment.Perf.MaxWaiting())
	}
}

func TestRecommendationMetricsFinite(t *testing.T) {
	a := paperAnalysis(t, 1)
	rec, err := Greedy(a, Goals{MaxWaiting: 0.01, MaxUnavailability: 1e-4},
		Constraints{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(rec.Assessment.Perf.MaxWaiting(), 1) {
		t.Error("accepted configuration has infinite waiting")
	}
	if rec.Cost != rec.Config.TotalServers() {
		t.Errorf("cost %d vs TotalServers %d", rec.Cost, rec.Config.TotalServers())
	}
}
