package performa

import (
	"bytes"
	"math"
	"testing"

	"performa/internal/performability"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

func epSystem(t *testing.T, xi float64) *System {
	t.Helper()
	sys, err := NewSystem(workload.PaperEnvironment(), workload.EPWorkflow(xi))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil); err == nil {
		t.Error("nil environment accepted")
	}
	if _, err := NewSystem(workload.PaperEnvironment()); err == nil {
		t.Error("empty workflow list accepted")
	}
	w := workload.EPWorkflow(1)
	delete(w.Profiles, "NewOrder")
	if _, err := NewSystem(workload.PaperEnvironment(), w); err == nil {
		t.Error("invalid workflow accepted")
	}
}

func TestAssessBundlesAllModels(t *testing.T) {
	sys := epSystem(t, 1)
	as, err := sys.Assess(Configuration{Replicas: []int{2, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if as.Performance == nil || as.Availability == nil || as.Performability == nil {
		t.Fatal("missing model outputs")
	}
	if as.Performance.Saturated() {
		t.Error("light load reported saturated")
	}
	if as.Availability.DowntimeHoursPerYear <= 0 {
		t.Error("no downtime despite failure rates")
	}
	// The paper's asymmetric configuration bounds downtime below a
	// minute per year.
	if s := as.Availability.DowntimeSecondsPerYear(); s >= 60 {
		t.Errorf("downtime = %v s/yr, want < 60", s)
	}
	if as.Performability.MaxWaiting() < as.Performance.MaxWaiting() {
		t.Error("performability below failure-free waiting")
	}
}

func TestPlanMeetsGoals(t *testing.T) {
	sys := epSystem(t, 1)
	goals := Goals{MaxWaiting: 0.01, MaxUnavailability: 1e-5}
	rec, err := sys.Plan(goals, Constraints{}, plannerDefaults())
	if err != nil {
		t.Fatal(err)
	}
	as, err := sys.Assess(rec.Config)
	if err != nil {
		t.Fatal(err)
	}
	if as.Performability.MaxWaiting() > goals.MaxWaiting {
		t.Errorf("waiting %v above goal", as.Performability.MaxWaiting())
	}
	if 1-as.Availability.Availability > goals.MaxUnavailability {
		t.Errorf("unavailability above goal")
	}
	// Exhaustive baseline agrees on cost.
	ex, err := sys.PlanExhaustive(goals, Constraints{MaxReplicas: []int{6, 6, 6}}, plannerDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost > ex.Cost+1 {
		t.Errorf("greedy cost %d vs exhaustive %d", rec.Cost, ex.Cost)
	}
}

func plannerDefaults() PlannerOptions {
	return PlannerOptions{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	}
}

func TestSimulateValidatesAnalyticThroughput(t *testing.T) {
	// Keep the run small: EP at a low rate over a few thousand minutes.
	sys := epSystem(t, 0.2)
	res, err := sys.Simulate(SimParams{
		Replicas: []int{2, 2, 3},
		Seed:     5,
		Horizon:  4000,
		Warmup:   500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed[0] == 0 {
		t.Fatal("no instances completed")
	}
	want := sys.Models()[0].Turnaround()
	if got := res.Turnaround[0].Mean; math.Abs(got-want)/want > 0.15 {
		t.Errorf("simulated turnaround %v vs analytic %v", got, want)
	}
}

func TestTurnaroundQuantileFacade(t *testing.T) {
	sys := epSystem(t, 1)
	median, err := sys.TurnaroundQuantile(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p95, err := sys.TurnaroundQuantile(0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(median > 0 && p95 > median) {
		t.Errorf("median %v, p95 %v", median, p95)
	}
	if _, err := sys.TurnaroundQuantile(5, 0.5); err == nil {
		t.Error("bad index accepted")
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	sys := epSystem(t, 1.5)
	var buf bytes.Buffer
	if err := sys.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	env, flows, err := wfjson.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := NewSystem(env, flows...)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys.Models()[0].Turnaround()-sys2.Models()[0].Turnaround()) > 1e-9 {
		t.Error("round trip changed the model")
	}
}

func TestAccessors(t *testing.T) {
	sys := epSystem(t, 1)
	if sys.Env() == nil || sys.Analysis() == nil || len(sys.Models()) != 1 {
		t.Error("accessors broken")
	}
}
