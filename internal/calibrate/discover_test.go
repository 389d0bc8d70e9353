package calibrate

import (
	"math"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/workload"
)

// simulateTrail runs the simulator over one workflow for the horizon (in
// minutes) and returns the audit trail: the true-concurrency walk, whose
// requests carry their activity, or the collapsed one.
func simulateTrail(t *testing.T, w *spec.Workflow, horizon float64, seed uint64, concurrent bool) *audit.Trail {
	t.Helper()
	env := workload.PaperEnvironment()
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{2, 2, 2},
		Seed: seed, Horizon: horizon, TrueConcurrency: concurrent, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	return trail
}

// checkDiscoveredLoan compares a workflow discovered from a loan trail
// with the specification: the same execution states and activities, and
// branch probabilities out of credit scoring within sampling error
// (0.55 / 0.2 / 0.25 at n ≈ 500).
func checkDiscoveredLoan(t *testing.T, discovered, truth *spec.Workflow) {
	t.Helper()
	wantStates := map[string]bool{}
	for name, s := range truth.Chart.States {
		if s.Activity != "" {
			wantStates[name] = true
		}
	}
	gotStates := map[string]bool{}
	for name, s := range discovered.Chart.States {
		if s.Activity != "" {
			gotStates[name] = true
			if truth.Chart.States[name] == nil || truth.Chart.States[name].Activity != s.Activity {
				t.Errorf("state %q has activity %q", name, s.Activity)
			}
		}
	}
	if len(gotStates) != len(wantStates) {
		t.Errorf("discovered states %v, want %v", gotStates, wantStates)
	}
	for _, tr := range discovered.Chart.Outgoing("Score_S") {
		var want float64
		for _, tt := range truth.Chart.Outgoing("Score_S") {
			if tt.To == tr.To {
				want = tt.Prob
			}
		}
		if math.Abs(tr.Prob-want) > 0.07 {
			t.Errorf("P(Score→%s) = %v, want ≈%v", tr.To, tr.Prob, want)
		}
	}
	if discovered.ArrivalRate <= 0 {
		t.Error("arrival rate not discovered")
	}
}

func TestDiscoverWorkflowFromSimulatorTrail(t *testing.T) {
	env := workload.PaperEnvironment()
	truth := workload.LoanWorkflow(1)
	trail := simulateTrail(t, truth, 500, 31, true)
	discovered, err := DiscoverWorkflow(trail, "Loan", env)
	if err != nil {
		t.Fatal(err)
	}
	checkDiscoveredLoan(t, discovered, truth)

	// Durations within 25% of the specification; loads — expected
	// requests per execution — within sampling noise of the specified
	// integers.
	for act, wantProf := range truth.Profiles {
		got, ok := discovered.Profiles[act]
		if !ok {
			t.Errorf("activity %q not discovered", act)
			continue
		}
		if d := math.Abs(got.MeanDuration - wantProf.MeanDuration); d > 0.25*wantProf.MeanDuration {
			t.Errorf("duration(%s) = %v, want ≈%v", act, got.MeanDuration, wantProf.MeanDuration)
		}
		for serverType, wantLoad := range wantProf.Load {
			if math.Abs(got.Load[serverType]-wantLoad) > 0.2 {
				t.Errorf("load(%s, %s) = %v, want ≈%v", act, serverType, got.Load[serverType], wantLoad)
			}
		}
	}

	// The discovered model's headline metrics track the truth.
	truthModel, err := spec.Build(truth, env)
	if err != nil {
		t.Fatal(err)
	}
	discModel, err := spec.Build(discovered, env)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := discModel.Turnaround(), truthModel.Turnaround(); math.Abs(got-want) > 0.15*want {
		t.Errorf("turnaround %v vs truth %v", got, want)
	}
	rd, rt := discModel.ExpectedRequests(), truthModel.ExpectedRequests()
	for x := range rd {
		if rt[x] == 0 {
			continue
		}
		if rel := math.Abs(rd[x]-rt[x]) / rt[x]; rel > 0.15 {
			t.Errorf("requests[%d] %v vs truth %v", x, rd[x], rt[x])
		}
	}
}

// TestDiscoverWorkflowFromCollapsedTrail: the collapsed walk enters the
// pseudo final state and completes the instance without leaving it;
// discovery counts that as a termination, so the exit pseudo-state is
// recognised rather than rejected as an activity-less state.
func TestDiscoverWorkflowFromCollapsedTrail(t *testing.T) {
	truth := workload.LoanWorkflow(1)
	trail := simulateTrail(t, truth, 500, 42, false)
	discovered, err := DiscoverWorkflow(trail, "Loan", workload.PaperEnvironment())
	if err != nil {
		t.Fatal(err)
	}
	checkDiscoveredLoan(t, discovered, truth)
}

func TestDiscoverRejectsNestedWorkflows(t *testing.T) {
	env := workload.PaperEnvironment()
	trail := simulateTrail(t, workload.EPWorkflow(1), 60, 5, true)
	_, err := DiscoverWorkflow(trail, "EP", env)
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("err = %v, want nested-chart rejection", err)
	}
}

func TestDiscoverEmptyTrail(t *testing.T) {
	env := workload.PaperEnvironment()
	if _, err := DiscoverWorkflow(audit.NewTrail(), "x", env); err == nil {
		t.Error("empty trail accepted")
	}
	// A trail for a different workflow has no matching records.
	trail := simulateTrail(t, workload.LoanWorkflow(1), 10, 5, true)
	if _, err := DiscoverWorkflow(trail, "Nope", env); err == nil {
		t.Error("foreign workflow name accepted")
	}
}

func TestUniqueKey(t *testing.T) {
	if _, err := uniqueKey(nil, "x"); err == nil {
		t.Error("empty accepted")
	}
	if got, err := uniqueKey(map[string]uint64{"a": 3, "b": 1}, "x"); err != nil || got != "a" {
		t.Errorf("got %q, %v", got, err)
	}
	if _, err := uniqueKey(map[string]uint64{"a": 1, "b": 1}, "x"); err == nil {
		t.Error("tie accepted")
	}
}
