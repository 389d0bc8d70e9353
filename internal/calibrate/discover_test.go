package calibrate

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"performa/internal/audit"
	"performa/internal/engine"
	"performa/internal/spec"
	"performa/internal/workload"
)

// loanTimeScale is runLoan's wall-clock seconds per model minute.
const loanTimeScale = 0.0025

// runLoan executes the loan workflow (flat: no nested subcharts) on the
// mini-WFMS and returns its trail, plus the worst amount (in model
// minutes) by which short time.Sleep calls overran on this host while
// the run lasted. Upper bounds on sleep-derived durations add it: on a
// loaded host every engine sleep overruns alike, and a fixed cap then
// fails without a defect.
func runLoan(t *testing.T, n int) (*audit.Trail, float64) {
	t.Helper()
	quit := make(chan struct{})
	worst := make(chan time.Duration)
	go func() {
		const nap = 200 * time.Microsecond
		var w time.Duration
		for {
			select {
			case <-quit:
				worst <- w
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(nap)
			if over := time.Since(t0) - nap; over > w {
				w = over
			}
		}
	}()
	env := workload.PaperEnvironment()
	rt := engine.New(env, engine.Options{
		TimeScale:  loanTimeScale,
		Seed:       31,
		AppWorkers: map[string]int{workload.AppType: 256},
		Users:      256,
		ServerReplicas: map[string]int{
			workload.ORB: 256, workload.EngineType: 256, workload.AppType: 256,
		},
	})
	done, err := rt.RunInstances(context.Background(), workload.LoanWorkflow(1), n, 1)
	close(quit)
	overshoot := (<-worst).Seconds() / loanTimeScale
	if err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	return rt.Trail(), overshoot
}

func TestDiscoverWorkflowFromEngineTrail(t *testing.T) {
	env := workload.PaperEnvironment()
	trail, overshoot := runLoan(t, 500)
	// An activity is two sleeps in a row: its duration, then its
	// slowest service request.
	overrun := 2 * overshoot
	discovered, err := DiscoverWorkflow(trail, "Loan", env)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.LoanWorkflow(1)

	// Topology: same execution states (modulo pseudo init/final).
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

	// Branch probabilities out of credit scoring within sampling error
	// of the specification (0.55 / 0.2 / 0.25 at n = 500).
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

	// Durations within 25% of the specification, plus the measured
	// overrun on the high side.
	for act, wantProf := range truth.Profiles {
		got, ok := discovered.Profiles[act]
		if !ok {
			t.Errorf("activity %q not discovered", act)
			continue
		}
		// Wall-clock execution adds a fixed per-activity overhead of
		// up to ~1 ms (≈ 0.5 model minutes at this time scale), so
		// short activities get an absolute allowance on top of the
		// relative tolerance.
		d := got.MeanDuration - wantProf.MeanDuration
		if d > 0 {
			d = math.Max(0, d-overrun)
		}
		if d = math.Abs(d); d > 0.25*wantProf.MeanDuration && d > 0.6 {
			t.Errorf("duration(%s) = %v, want ≈%v (overrun allowance %v)", act, got.MeanDuration, wantProf.MeanDuration, overrun)
		}
		// Load vectors: expected requests per execution match the
		// specified integers within sampling noise.
		for serverType, wantLoad := range wantProf.Load {
			if math.Abs(got.Load[serverType]-wantLoad) > 0.2 {
				t.Errorf("load(%s, %s) = %v, want ≈%v", act, serverType, got.Load[serverType], wantLoad)
			}
		}
	}

	// The discovered model's headline metrics track the truth: the
	// turnaround lies between 85% of the specified one and 115% of the
	// specified one with every activity slowed by the measured overrun.
	truthModel, err := spec.Build(truth, env)
	if err != nil {
		t.Fatal(err)
	}
	slowed := workload.LoanWorkflow(1)
	for act, prof := range slowed.Profiles {
		prof.MeanDuration += overrun
		slowed.Profiles[act] = prof
	}
	slowedModel, err := spec.Build(slowed, env)
	if err != nil {
		t.Fatal(err)
	}
	discModel, err := spec.Build(discovered, env)
	if err != nil {
		t.Fatal(err)
	}
	if got, lo, hi := discModel.Turnaround(), 0.85*truthModel.Turnaround(), 1.15*slowedModel.Turnaround(); got < lo || got > hi {
		t.Errorf("turnaround %v vs truth %v, want within [%v, %v]", got, truthModel.Turnaround(), lo, hi)
	}
	rd, rt2 := discModel.ExpectedRequests(), truthModel.ExpectedRequests()
	for x := range rd {
		if rt2[x] == 0 {
			continue
		}
		if rel := math.Abs(rd[x]-rt2[x]) / rt2[x]; rel > 0.15 {
			t.Errorf("requests[%d] %v vs truth %v", x, rd[x], rt2[x])
		}
	}
	if discovered.ArrivalRate <= 0 {
		t.Error("arrival rate not discovered")
	}
}

func TestDiscoverRejectsNestedWorkflows(t *testing.T) {
	env := workload.PaperEnvironment()
	rt := engine.New(env, engine.Options{
		TimeScale:  0.0002,
		Seed:       5,
		AppWorkers: map[string]int{workload.AppType: 64},
		Users:      64,
	})
	if _, err := rt.RunInstances(context.Background(), workload.EPWorkflow(1), 20, 0); err != nil {
		t.Fatal(err)
	}
	_, err := DiscoverWorkflow(rt.Trail(), "EP", env)
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
	trail, _ := runLoan(t, 10)
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
