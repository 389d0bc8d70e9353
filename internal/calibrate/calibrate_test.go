// The hand-computed estimate checks live in the external test package so
// they can pin the one record fold (stream.Estimator, through its batch
// entry stream.FromTrail) together with what calibrate makes of it.
package calibrate_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/stream"
	"performa/internal/wfmserr"
	"performa/internal/workload"
)

func testEnv(t *testing.T) *spec.Environment {
	t.Helper()
	b, b2 := spec.ExpServiceMoments(0.1)
	env, err := spec.NewEnvironment(
		spec.ServerType{Name: "eng", Kind: spec.Engine, MeanService: b, ServiceSecondMoment: b2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// branchWorkflow: init → a; a → b (0.5) | c (0.5); b → done; c → done.
func branchWorkflow() *spec.Workflow {
	chart := statechart.NewBuilder("wf").
		Initial("init").
		Activity("a", "A").
		Activity("b", "B").
		Activity("c", "C").
		Final("done").
		Transition("init", "a", 1).
		Transition("a", "b", 0.5).
		Transition("a", "c", 0.5).
		Transition("b", "done", 1).
		Transition("c", "done", 1).
		MustBuild()
	return &spec.Workflow{
		Name:  "wf",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"A": {Name: "A", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
			"B": {Name: "B", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
			"C": {Name: "C", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
		},
	}
}

// syntheticTrail emits nA instances taking the a→b branch and nC taking
// a→c, with fixed residence times.
func syntheticTrail(nB, nC int) *audit.Trail {
	tr := audit.NewTrail()
	var now float64
	inst := uint64(0)
	emit := func(branch string) {
		inst++
		tr.Append(audit.Record{Kind: audit.InstanceStarted, Time: now, Workflow: "wf", Instance: inst})
		tr.Append(audit.Record{Kind: audit.StateEntered, Time: now, Workflow: "wf", Instance: inst, Chart: "wf", State: "a"})
		tr.Append(audit.Record{Kind: audit.ActivityStarted, Time: now, Instance: inst, Activity: "A"})
		now += 2 // activity A takes 2
		tr.Append(audit.Record{Kind: audit.ActivityCompleted, Time: now, Instance: inst, Activity: "A"})
		tr.Append(audit.Record{Kind: audit.StateLeft, Time: now, Workflow: "wf", Instance: inst, Chart: "wf", State: "a"})
		tr.Append(audit.Record{Kind: audit.StateEntered, Time: now, Workflow: "wf", Instance: inst, Chart: "wf", State: branch})
		now += 3
		tr.Append(audit.Record{Kind: audit.StateLeft, Time: now, Workflow: "wf", Instance: inst, Chart: "wf", State: branch})
		tr.Append(audit.Record{Kind: audit.InstanceCompleted, Time: now, Workflow: "wf", Instance: inst})
		tr.Append(audit.Record{Kind: audit.ServiceRequest, Time: now, ServerType: "eng", Waiting: 0.5, Service: 0.2})
		now += 5 // inter-arrival
	}
	for i := 0; i < nB; i++ {
		emit("b")
	}
	for i := 0; i < nC; i++ {
		emit("c")
	}
	return tr
}

func TestFromTrailEmpty(t *testing.T) {
	if _, err := stream.FromTrail(audit.NewTrail()); err == nil {
		t.Error("empty trail accepted")
	}
}

// TestRequireCompleted pins the trust gate of the batch recalibration
// callers: 49 completed instances are below the default 50, a stated
// minimum is honoured as given.
func TestRequireCompleted(t *testing.T) {
	e, err := stream.FromTrail(syntheticTrail(30, 19))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RequireCompleted(0); !errors.Is(err, calibrate.ErrTooFewObservations) {
		t.Errorf("49 instances against the default: err = %v, want ErrTooFewObservations", err)
	}
	if err := e.RequireCompleted(49); err != nil {
		t.Errorf("49 instances against 49: %v", err)
	}
}

func TestTransitionEstimation(t *testing.T) {
	e, err := stream.FromTrail(syntheticTrail(30, 10))
	if err != nil {
		t.Fatal(err)
	}
	pB, ok := e.TransitionProb("wf", "a", "b", 2, 0)
	if !ok {
		t.Fatal("no departures observed from a")
	}
	if math.Abs(pB-0.75) > 1e-12 {
		t.Errorf("P(a→b) = %v, want 0.75", pB)
	}
	pC, _ := e.TransitionProb("wf", "a", "c", 2, 0)
	if math.Abs(pC-0.25) > 1e-12 {
		t.Errorf("P(a→c) = %v, want 0.25", pC)
	}
	// Smoothing pulls towards uniform.
	pSmooth, _ := e.TransitionProb("wf", "a", "b", 2, 5)
	if pSmooth >= pB || pSmooth <= 0.5 {
		t.Errorf("smoothed P = %v, want between 0.5 and %v", pSmooth, pB)
	}
}

func TestTransitionProbUnobserved(t *testing.T) {
	e, err := stream.FromTrail(syntheticTrail(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.TransitionProb("wf", "zzz", "b", 2, 0); ok {
		t.Error("unobserved state reported observed")
	}
	// With smoothing, an unobserved transition still gets mass.
	p, _ := e.TransitionProb("wf", "a", "c", 2, 1)
	if p <= 0 {
		t.Errorf("smoothed unobserved prob = %v", p)
	}
}

func TestResidenceAndActivityEstimates(t *testing.T) {
	e, err := stream.FromTrail(syntheticTrail(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if mp := e.Residence[[2]string{"wf", "a"}]; mp == nil || math.Abs(mp.Mean-2) > 1e-12 {
		t.Errorf("residence(a) = %+v, want mean 2", mp)
	}
	if mp := e.ActivityDurations["A"]; mp == nil || math.Abs(mp.Mean-2) > 1e-12 {
		t.Errorf("duration(A) = %+v, want mean 2", mp)
	}
	if mp := e.Turnarounds["wf"]; mp == nil || math.Abs(mp.Mean-5) > 1e-12 {
		t.Errorf("turnaround = %+v, want mean 5", mp)
	}
}

func TestServiceAndWaitingMoments(t *testing.T) {
	e, err := stream.FromTrail(syntheticTrail(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	sm := e.ServiceMoments["eng"]
	if sm == nil || math.Abs(sm.Mean-0.2) > 1e-12 || math.Abs(sm.SecondMoment-0.04) > 1e-12 {
		t.Errorf("service moments = %+v", sm)
	}
	wm := e.WaitingMoments["eng"]
	if wm == nil || math.Abs(wm.Mean-0.5) > 1e-12 {
		t.Errorf("waiting moments = %+v", wm)
	}
	if len(e.ServiceMoments) != 1 {
		t.Errorf("observed types = %v", e.ServiceMoments)
	}
}

func TestArrivalRateEstimate(t *testing.T) {
	e, err := stream.FromTrail(syntheticTrail(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Starts are spaced 10 apart (2 + 3 + 5 inter-arrival), so the 19
	// inter-start gaps span 190: rate = 19/190 = 0.1 exactly, unbiased
	// by the drain tail after the last start.
	if rate := e.ArrivalRates["wf"]; math.Abs(rate-0.1) > 1e-9 {
		t.Errorf("arrival rate = %v, want 0.1", rate)
	}
}

func TestApplyToWorkflowRewritesParameters(t *testing.T) {
	env := testEnv(t)
	w := branchWorkflow()
	e, err := stream.FromTrail(syntheticTrail(30, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyToWorkflow(w, env, calibrate.Options{}); err != nil {
		t.Fatal(err)
	}
	// Branch probabilities re-estimated to 0.75/0.25.
	for _, tr := range w.Chart.Outgoing("a") {
		want := 0.75
		if tr.To == "c" {
			want = 0.25
		}
		if math.Abs(tr.Prob-want) > 1e-9 {
			t.Errorf("P(a→%s) = %v, want %v", tr.To, tr.Prob, want)
		}
	}
	// Activity A duration re-estimated to 2.
	if got := w.Profiles["A"].MeanDuration; math.Abs(got-2) > 1e-12 {
		t.Errorf("duration(A) = %v, want 2", got)
	}
	// Unobserved activities B and C keep their designer estimates.
	if got := w.Profiles["B"].MeanDuration; got != 1 {
		t.Errorf("duration(B) = %v, want untouched 1", got)
	}
	// The rewritten workflow still builds.
	if _, err := spec.Build(w, env); err != nil {
		t.Errorf("workflow no longer builds: %v", err)
	}
}

func TestApplyToWorkflowOneSidedBranchNeedsSmoothing(t *testing.T) {
	env := testEnv(t)
	w := branchWorkflow()
	e, err := stream.FromTrail(syntheticTrail(10, 0)) // branch c never taken
	if err != nil {
		t.Fatal(err)
	}
	err = e.ApplyToWorkflow(w, env, calibrate.Options{})
	if err == nil || !strings.Contains(err.Error(), "Smoothing") {
		t.Fatalf("err = %v, want smoothing hint", err)
	}
	// With smoothing it works and keeps branch c possible.
	w2 := branchWorkflow()
	if err := e.ApplyToWorkflow(w2, env, calibrate.Options{Smoothing: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range w2.Chart.Outgoing("a") {
		if tr.Prob <= 0 || tr.Prob >= 1 {
			t.Errorf("P(a→%s) = %v", tr.To, tr.Prob)
		}
	}
}

func TestApplyToWorkflowMinObservations(t *testing.T) {
	env := testEnv(t)
	w := branchWorkflow()
	e, err := stream.FromTrail(syntheticTrail(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyToWorkflow(w, env, calibrate.Options{MinObservations: 100}); err != nil {
		t.Fatal(err)
	}
	// Nothing rewritten: designer values survive.
	for _, tr := range w.Chart.Outgoing("a") {
		if tr.Prob != 0.5 {
			t.Errorf("P(a→%s) = %v, want untouched 0.5", tr.To, tr.Prob)
		}
	}
}

func TestServerTypesWithMeasuredService(t *testing.T) {
	env := testEnv(t)
	e, err := stream.FromTrail(syntheticTrail(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	types := e.ServerTypesWithMeasuredService(env)
	if math.Abs(types[0].MeanService-0.2) > 1e-12 {
		t.Errorf("measured mean service = %v, want 0.2", types[0].MeanService)
	}
	// The environment itself is untouched.
	if env.Type(0).MeanService != 0.1 {
		t.Error("environment mutated")
	}
}

func TestFromTrailEmptyTypedError(t *testing.T) {
	_, err := stream.FromTrail(audit.NewTrail())
	if wfmserr.CodeOf(err) != wfmserr.CodeInvalidModel {
		t.Errorf("empty-trail error code = %q, want invalid_model (err: %v)", wfmserr.CodeOf(err), err)
	}
}

func TestVarianceSingleSampleNonNegative(t *testing.T) {
	// One sample: E[X²] − E[X]² cancels exactly in theory, but the
	// clamp must hold even when floating cancellation leaves dust.
	serviceMoments := func(samples ...float64) *calibrate.MomentPair {
		tr := audit.NewTrail()
		for i, x := range samples {
			tr.Append(audit.Record{Kind: audit.ServiceRequest, Time: float64(i), ServerType: "eng", Service: x})
		}
		e, err := stream.FromTrail(tr)
		if err != nil {
			t.Fatal(err)
		}
		return e.ServiceMoments["eng"]
	}
	if v := serviceMoments(0.1234567891234567).Variance(); v != 0 {
		t.Errorf("single-sample variance = %v, want exactly 0", v)
	}
	if v := (&calibrate.MomentPair{N: 3, Mean: 2, SecondMoment: 3.999999999999999}).Variance(); v != 0 {
		t.Errorf("cancellation dust variance = %v, want clamped 0", v)
	}
	if v := serviceMoments(1, 3).Variance(); math.Abs(v-1) > 1e-12 {
		t.Errorf("two-sample variance = %v, want 1", v)
	}
}

func TestApplyToWorkflowZeroDurationTypedError(t *testing.T) {
	// A trail whose activity starts and completes at the same instant
	// estimates a zero mean duration; applying it would put H = 0 into
	// the CTMC. The apply must fail with a typed invalid_model error,
	// not hand a NaN-rate model downstream.
	env := testEnv(t)
	w := branchWorkflow()
	tr := audit.NewTrail()
	for i := uint64(1); i <= 3; i++ {
		now := float64(i) * 10
		tr.Append(audit.Record{Kind: audit.InstanceStarted, Time: now, Workflow: "wf", Instance: i})
		tr.Append(audit.Record{Kind: audit.ActivityStarted, Time: now, Instance: i, Activity: "A"})
		tr.Append(audit.Record{Kind: audit.ActivityCompleted, Time: now, Instance: i, Activity: "A"})
		tr.Append(audit.Record{Kind: audit.InstanceCompleted, Time: now, Workflow: "wf", Instance: i})
	}
	e, err := stream.FromTrail(tr)
	if err != nil {
		t.Fatal(err)
	}
	err = e.ApplyToWorkflow(w, env, calibrate.Options{})
	if wfmserr.CodeOf(err) != wfmserr.CodeInvalidModel {
		t.Errorf("zero-duration apply error code = %q, want invalid_model (err: %v)", wfmserr.CodeOf(err), err)
	}
}

func TestApplyToWorkflowOneSidedBranchTypedError(t *testing.T) {
	env := testEnv(t)
	w := branchWorkflow()
	e, err := stream.FromTrail(syntheticTrail(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	err = e.ApplyToWorkflow(w, env, calibrate.Options{})
	if wfmserr.CodeOf(err) != wfmserr.CodeInvalidModel {
		t.Errorf("one-sided branch error code = %q, want invalid_model (err: %v)", wfmserr.CodeOf(err), err)
	}
}

func TestServerTypesWithMeasuredServiceDegenerate(t *testing.T) {
	env := testEnv(t)
	// All-zero service durations: the measured mean is 0, which would
	// make every waiting-time formula divide by zero. The declared
	// moment must survive.
	e := &calibrate.Estimates{ServiceMoments: map[string]*calibrate.MomentPair{
		"eng": {N: 5, Mean: 0, SecondMoment: 0},
	}}
	types := e.ServerTypesWithMeasuredService(env)
	if types[0].MeanService != 0.1 {
		t.Errorf("zero-mean measurement applied: MeanService = %v", types[0].MeanService)
	}
	// Second moment below mean² (impossible; cancellation artifact) is
	// clamped up to mean², never applied as a negative variance.
	e = &calibrate.Estimates{ServiceMoments: map[string]*calibrate.MomentPair{
		"eng": {N: 1, Mean: 0.2, SecondMoment: 0.2*0.2 - 1e-18},
	}}
	types = e.ServerTypesWithMeasuredService(env)
	if got := types[0].ServiceSecondMoment; got < types[0].MeanService*types[0].MeanService {
		t.Errorf("second moment %v below mean² %v", got, types[0].MeanService*types[0].MeanService)
	}
	// Non-finite moments are rejected wholesale.
	e = &calibrate.Estimates{ServiceMoments: map[string]*calibrate.MomentPair{
		"eng": {N: 2, Mean: math.Inf(1), SecondMoment: math.Inf(1)},
	}}
	types = e.ServerTypesWithMeasuredService(env)
	if types[0].MeanService != 0.1 {
		t.Errorf("infinite measurement applied: MeanService = %v", types[0].MeanService)
	}
}

func TestMeasuredEnvironment(t *testing.T) {
	env := testEnv(t)
	e, err := stream.FromTrail(syntheticTrail(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	menv, err := e.MeasuredEnvironment(env)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(menv.Type(0).MeanService-0.2) > 1e-12 {
		t.Errorf("measured env mean service = %v, want 0.2", menv.Type(0).MeanService)
	}
	if env.Type(0).MeanService != 0.1 {
		t.Error("source environment mutated")
	}
}

// TestDiscoverArrivalRateMatchesEstimator: discovery computes the
// arrival rate from the instance starts its own loop walks; it must be
// the estimator's (n−1)/span value on the same trail, exactly.
func TestDiscoverArrivalRateMatchesEstimator(t *testing.T) {
	env := workload.PaperEnvironment()
	loan := workload.LoanWorkflow(1)
	m, err := spec.Build(loan, env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{2, 2, 2},
		Seed: 5, Horizon: 60, TrueConcurrency: true, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	flow, err := calibrate.DiscoverWorkflow(trail, loan.Name, env)
	if err != nil {
		t.Fatal(err)
	}
	est, err := stream.FromTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	if want := est.ArrivalRates[loan.Name]; !(want > 0) || flow.ArrivalRate != want {
		t.Errorf("discovered arrival rate %v, estimator's %v", flow.ArrivalRate, want)
	}
}

// TestFromTrailEstimatesNestedActivity: PickGoods runs inside EP's
// shipment subchart, so only the true-concurrency walk's nested activity
// spans measure it; the estimate must sit within sampling error of the
// specified mean.
func TestFromTrailEstimatesNestedActivity(t *testing.T) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(0.5), env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{4, 4, 4},
		Seed: 11, Horizon: 800, TrueConcurrency: true, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	est, err := stream.FromTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	mp := est.ActivityDurations["PickGoods"]
	if mp == nil || mp.N < 100 {
		t.Fatalf("PickGoods spans = %+v, want at least 100", mp)
	}
	// Exponential durations: the standard deviation is the mean.
	want := workload.EPDurations["PickGoods"]
	if bound := 4 * want / math.Sqrt(float64(mp.N)); math.Abs(mp.Mean-want) > bound {
		t.Errorf("duration(PickGoods) = %v from %d spans, want %v ± %.3f", mp.Mean, mp.N, want, bound)
	}
}
