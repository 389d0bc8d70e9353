package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/stream"
)

func testEnv(t *testing.T) *spec.Environment {
	t.Helper()
	b, b2 := spec.ExpServiceMoments(0.05)
	env, err := spec.NewEnvironment(
		spec.ServerType{Name: "orb", Kind: spec.Communication, MeanService: b, ServiceSecondMoment: b2},
		spec.ServerType{Name: "eng", Kind: spec.Engine, MeanService: b, ServiceSecondMoment: b2},
		spec.ServerType{Name: "app", Kind: spec.Application, MeanService: b, ServiceSecondMoment: b2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func opts(seed uint64) Options {
	return Options{TimeScale: 0.0002, Seed: seed, AppWorkers: map[string]int{"app": 8}, Users: 8}
}

// measureSleepOvershoot samples, until the returned stop is called, by
// how much short time.Sleep calls overrun on this host, and returns the
// worst overrun in model time units at the given time scale. Duration
// caps add it: on a loaded host every engine sleep overruns alike, and
// a fixed cap on a sleep-derived duration then fails without a defect.
func measureSleepOvershoot(timeScale float64) (stop func() float64) {
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
	return func() float64 {
		close(quit)
		return (<-worst).Seconds() / timeScale
	}
}

func linearWorkflow() *spec.Workflow {
	chart := statechart.NewBuilder("linear").
		Initial("init").
		Activity("work", "Work").
		Final("done").
		Transition("init", "work", 1).
		Transition("work", "done", 1).
		MustBuild()
	return &spec.Workflow{
		Name:  "linear",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"Work": {Name: "Work", MeanDuration: 1,
				Load: map[string]float64{"orb": 2, "eng": 1, "app": 1}},
		},
	}
}

func branchWorkflow(p float64) *spec.Workflow {
	chart := statechart.NewBuilder("branchy").
		Initial("init").
		Activity("decide", "Decide").
		Activity("yes", "Yes").
		Activity("no", "No").
		Final("done").
		Transition("init", "decide", 1).
		Transition("decide", "yes", p).
		Transition("decide", "no", 1-p).
		Transition("yes", "done", 1).
		Transition("no", "done", 1).
		MustBuild()
	mk := func(n string) spec.ActivityProfile {
		return spec.ActivityProfile{Name: n, MeanDuration: 0.5, Load: map[string]float64{"eng": 1}}
	}
	return &spec.Workflow{
		Name:  "branchy",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"Decide": mk("Decide"), "Yes": mk("Yes"), "No": mk("No"),
		},
	}
}

func TestRunInstancesLinear(t *testing.T) {
	env := testEnv(t)
	rt := New(env, opts(1))
	done, err := rt.RunInstances(context.Background(), linearWorkflow(), 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	tr := rt.Trail()
	if got := len(tr.Filter(audit.InstanceStarted)); got != 20 {
		t.Errorf("instance_started = %d", got)
	}
	if got := len(tr.Filter(audit.InstanceCompleted)); got != 20 {
		t.Errorf("instance_completed = %d", got)
	}
	if got := len(tr.Filter(audit.ActivityStarted)); got != 20 {
		t.Errorf("activity_started = %d", got)
	}
	// Each Work execution emits 2 orb + 1 eng + 1 app requests.
	svc := tr.Filter(audit.ServiceRequest)
	counts := map[string]int{}
	for _, r := range svc {
		counts[r.ServerType]++
	}
	if counts["orb"] != 40 || counts["eng"] != 20 || counts["app"] != 20 {
		t.Errorf("service counts = %v", counts)
	}
}

func TestRunInstancesInvalidWorkflow(t *testing.T) {
	env := testEnv(t)
	rt := New(env, opts(1))
	w := linearWorkflow()
	delete(w.Profiles, "Work")
	if _, err := rt.RunInstances(context.Background(), w, 1, 0); err == nil {
		t.Error("invalid workflow accepted")
	}
}

func TestBranchProbabilitiesHonored(t *testing.T) {
	env := testEnv(t)
	rt := New(env, opts(7))
	const n = 600
	done, err := rt.RunInstances(context.Background(), branchWorkflow(0.7), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	yes := 0
	for _, r := range rt.Trail().Filter(audit.ActivityStarted) {
		if r.Activity == "Yes" {
			yes++
		}
	}
	if frac := float64(yes) / n; math.Abs(frac-0.7) > 0.06 {
		t.Errorf("yes fraction = %v, want ≈0.7", frac)
	}
}

func TestParallelSubcharts(t *testing.T) {
	env := testEnv(t)
	mkSub := func(name, act string) *statechart.Chart {
		return statechart.NewBuilder(name).
			Initial("i").
			Activity("s", act).
			Final("f").
			Transition("i", "s", 1).
			Transition("s", "f", 1).
			MustBuild()
	}
	chart := statechart.NewBuilder("par").
		Initial("init").
		Nested("both", mkSub("subA", "ActA"), mkSub("subB", "ActB")).
		Final("done").
		Transition("init", "both", 1).
		Transition("both", "done", 1).
		MustBuild()
	mk := func(n string) spec.ActivityProfile {
		return spec.ActivityProfile{Name: n, MeanDuration: 0.5, Load: map[string]float64{"app": 1}}
	}
	w := &spec.Workflow{
		Name:     "par",
		Chart:    chart,
		Profiles: map[string]spec.ActivityProfile{"ActA": mk("ActA"), "ActB": mk("ActB")},
	}
	rt := New(env, opts(3))
	done, err := rt.RunInstances(context.Background(), w, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 10 {
		t.Fatalf("completed %d", done)
	}
	counts := map[string]int{}
	for _, r := range rt.Trail().Filter(audit.ActivityCompleted) {
		counts[r.Activity]++
	}
	if counts["ActA"] != 10 || counts["ActB"] != 10 {
		t.Errorf("parallel activity counts = %v", counts)
	}
	// Both subcharts appear in the trail under their own chart names.
	charts := map[string]bool{}
	for _, r := range rt.Trail().Filter(audit.StateEntered) {
		charts[r.Chart] = true
	}
	if !charts["subA"] || !charts["subB"] {
		t.Errorf("charts in trail = %v", charts)
	}
}

func TestECAConditionsGateTransitions(t *testing.T) {
	env := testEnv(t)
	// decide sets flag=false on its outgoing transition; the guarded
	// branch must never fire.
	chart := statechart.NewBuilder("guarded").
		Initial("init").
		Activity("decide", "Decide").
		Activity("guardedAct", "Guarded").
		Activity("fallback", "Fallback").
		Activity("hub", "Hub").
		Final("done").
		Transition("init", "decide", 1).
		TransitionECA("decide", "hub", 1, "", "", []statechart.Action{{Kind: statechart.ActionSetFalse, Target: "flag"}}).
		Transition("hub", "guardedAct", 0.5).
		Transition("hub", "fallback", 0.5).
		Transition("guardedAct", "done", 1).
		Transition("fallback", "done", 1).
		MustBuild()
	// Guard the 0.5-branch on flag being true — it is always false.
	for _, tr := range chart.Outgoing("hub") {
		if tr.To == "guardedAct" {
			tr.Cond = "flag"
		}
	}
	mk := func(n string) spec.ActivityProfile {
		return spec.ActivityProfile{Name: n, MeanDuration: 0.2, Load: map[string]float64{"eng": 1}}
	}
	w := &spec.Workflow{
		Name:  "guarded",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"Decide": mk("Decide"), "Guarded": mk("Guarded"),
			"Fallback": mk("Fallback"), "Hub": mk("Hub"),
		},
	}
	rt := New(env, opts(5))
	done, err := rt.RunInstances(context.Background(), w, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 50 {
		t.Fatalf("completed %d", done)
	}
	for _, r := range rt.Trail().Filter(audit.ActivityStarted) {
		if r.Activity == "Guarded" {
			t.Fatal("guarded branch fired despite false condition")
		}
	}
}

func TestDurationEstimatesAtCoarserScale(t *testing.T) {
	// With multi-millisecond sleeps the scheduler overhead is
	// negligible and the measured activity duration must track the
	// specified mean.
	env := testEnv(t)
	// Plenty of app workers and request slots so the measured
	// turnaround is pure execution, not queueing for bounded pools.
	rt := New(env, Options{TimeScale: 0.004, Seed: 21, Users: 8,
		AppWorkers:     map[string]int{"app": 200},
		ServerReplicas: map[string]int{"orb": 400, "eng": 400, "app": 400}})
	w := linearWorkflow() // Work has MeanDuration 1 → 4 ms sleeps
	const n = 150
	stop := measureSleepOvershoot(0.004)
	done, err := rt.RunInstances(context.Background(), w, n, 0)
	overshoot := stop()
	if err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("completed %d", done)
	}
	est, err := stream.FromTrail(rt.Trail())
	if err != nil {
		t.Fatal(err)
	}
	mp := est.ActivityDurations["Work"]
	if mp == nil {
		t.Fatal("no duration estimate")
	}
	// Exponential mean 1 from 150 samples: stderr ≈ 0.082; allow 4σ
	// plus a generous overhead allowance, plus what this host's sleeps
	// overran while the run lasted (an activity is two sleeps in a row:
	// its duration, then its slowest service request).
	upper := 1.6 + 2*overshoot
	if mp.Mean < 0.6 || mp.Mean > upper {
		t.Errorf("estimated duration mean = %v, want within [0.6, %v]", mp.Mean, upper)
	}
}

func TestConstrainedServerPoolMeasuresWaiting(t *testing.T) {
	// Give the engine type a single replica slot while many instances
	// emit requests concurrently: the audit trail must record positive
	// queueing delays, and calibrate must surface them.
	env := testEnv(t)
	rt := New(env, Options{
		TimeScale:      0.0005,
		Seed:           13,
		AppWorkers:     map[string]int{"app": 64},
		Users:          64,
		ServerReplicas: map[string]int{"eng": 1},
	})
	w := linearWorkflow() // Work loads orb:2 eng:1 app:1
	done, err := rt.RunInstances(context.Background(), w, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 60 {
		t.Fatalf("completed %d", done)
	}
	est, err := stream.FromTrail(rt.Trail())
	if err != nil {
		t.Fatal(err)
	}
	wm := est.WaitingMoments["eng"]
	if wm == nil || wm.N != 60 {
		t.Fatalf("waiting moments = %+v", wm)
	}
	if wm.Mean <= 0 {
		t.Errorf("constrained pool recorded zero mean waiting")
	}
	// The uncontended orb pool (16 slots, 2 requests per activity)
	// should wait far less than the single-slot engine pool.
	om := est.WaitingMoments["orb"]
	if om == nil {
		t.Fatal("no orb waiting moments")
	}
	if om.Mean >= wm.Mean {
		t.Errorf("orb waiting %v not below constrained engine %v", om.Mean, wm.Mean)
	}
	// Service moments are recorded alongside.
	if sm := est.ServiceMoments["eng"]; sm == nil || sm.Mean <= 0 {
		t.Errorf("service moments = %+v", sm)
	}
}

func TestContextCancellation(t *testing.T) {
	env := testEnv(t)
	rt := New(env, Options{TimeScale: 0.05, Seed: 1}) // slow: 50ms per unit
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	done, err := rt.RunInstances(ctx, linearWorkflow(), 50, 0)
	if err == nil {
		t.Error("expected context error")
	}
	if done >= 50 {
		t.Errorf("completed %d despite cancellation", done)
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	// Run the engine, estimate from its trail, and check the estimates
	// recover the specification: the full mapping→calibration loop of
	// Section 7.1.
	env := testEnv(t)
	rt := New(env, opts(11))
	w := branchWorkflow(0.3)
	const n = 800
	stop := measureSleepOvershoot(opts(11).TimeScale)
	_, err := rt.RunInstances(context.Background(), w, n, 0)
	overshoot := stop()
	if err != nil {
		t.Fatal(err)
	}
	est, err := stream.FromTrail(rt.Trail())
	if err != nil {
		t.Fatal(err)
	}
	p, ok := est.TransitionProb("branchy", "decide", "yes", 2, 0)
	if !ok {
		t.Fatal("no departures observed")
	}
	if math.Abs(p-0.3) > 0.05 {
		t.Errorf("estimated P(decide→yes) = %v, want ≈0.3", p)
	}
	// At this aggressive time scale (0.1 ms per activity), scheduler
	// overhead inflates observed durations, so only a lower bound and a
	// sanity cap — widened by the sleep overrun measured on this host
	// during the run — are checked here;
	// TestDurationEstimatesAtCoarserScale verifies accuracy with
	// realistic sleeps.
	upper := 50 + 2*overshoot
	if mp := est.ActivityDurations["Decide"]; mp == nil || mp.Mean < 0.4 || mp.Mean > upper {
		t.Errorf("estimated duration = %+v, want within [0.4, %v]", mp, upper)
	}
	// Applying the estimates yields a valid workflow close to the
	// original.
	w2 := branchWorkflow(0.5) // start from wrong designer guesses
	if err := est.ApplyToWorkflow(w2, env, calibrate.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range w2.Chart.Outgoing("decide") {
		if tr.To == "yes" && math.Abs(tr.Prob-0.3) > 0.05 {
			t.Errorf("recalibrated P = %v, want ≈0.3", tr.Prob)
		}
	}
}
