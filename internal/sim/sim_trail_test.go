package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/stream"
	"performa/internal/workload"
)

// branchModel returns a workflow whose initial activity branches to one
// of two activities with the given probability.
func branchModel(t *testing.T, env *spec.Environment, pLeft, xi float64) *spec.Model {
	t.Helper()
	chart := statechart.NewBuilder("wf").
		Initial("init").
		Activity("Check", "check").
		Activity("Left", "left").
		Activity("Right", "right").
		Final("done").
		Transition("init", "Check", 1).
		Transition("Check", "Left", pLeft).
		Transition("Check", "Right", 1-pLeft).
		Transition("Left", "done", 1).
		Transition("Right", "done", 1).
		MustBuild()
	load := map[string]float64{"srv": 1}
	w := &spec.Workflow{
		Name:  "wf",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"check": {Name: "check", MeanDuration: 0.5, Load: load},
			"left":  {Name: "left", MeanDuration: 0.5, Load: load},
			"right": {Name: "right", MeanDuration: 0.5, Load: load},
		},
		ArrivalRate: xi,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrailRecordsInstanceLifecycles(t *testing.T) {
	env := oneTypeEnv(t, 0.05, 0, 0)
	m := simpleModel(t, env, 1, 1, 2)
	trail := audit.NewTrail()
	res, err := Run(Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{2},
		Horizon: 200, Seed: 3, Trail: trail,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trail.Len() == 0 {
		t.Fatal("empty trail")
	}
	starts := trail.Filter(audit.InstanceStarted)
	completes := trail.Filter(audit.InstanceCompleted)
	if len(starts) == 0 || len(completes) == 0 {
		t.Fatalf("starts=%d completes=%d, want both > 0", len(starts), len(completes))
	}
	if len(completes) > len(starts) {
		t.Errorf("more completions (%d) than starts (%d)", len(completes), len(starts))
	}
	// The sim counts only post-warmup instances; the trail records all
	// of them, so it must have at least as many.
	if uint64(len(starts)) < res.Started[0] {
		t.Errorf("trail has %d starts, sim counted %d", len(starts), res.Started[0])
	}
	// Every service request carries a positive service time and a
	// nonnegative wait on the right server type.
	for _, r := range trail.Filter(audit.ServiceRequest) {
		if r.ServerType != "srv" || !(r.Service > 0) || r.Waiting < 0 {
			t.Fatalf("bad service record: %+v", r)
		}
	}
	// The trail must calibrate cleanly and reproduce the chart's
	// control flow: "A" is entered once per started instance, and every
	// observed departure from "A" goes to the final state.
	est, err := stream.FromTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.TransitionCounts[calibrate.TransitionKey{Chart: "wf", From: "A", To: "done"}]; got == 0 {
		t.Error("no A→done transitions observed")
	}
	dep := est.Departures[[2]string{"wf", "A"}]
	if p, ok := est.TransitionProb("wf", "A", "done", 1, 0); !ok || p != 1 {
		t.Errorf("P(A→done) = %v (ok=%v), want 1 from %d departures", p, ok, dep)
	}
	if est.Starts["wf"] != uint64(len(starts)) {
		t.Errorf("calibrated starts %d != trail starts %d", est.Starts["wf"], len(starts))
	}
	// Activity spans were recorded and have plausible durations.
	mp := est.ActivityDurations["act"]
	if mp == nil || mp.N == 0 || !(mp.Mean > 0) {
		t.Fatalf("no usable activity duration estimates: %+v", mp)
	}
}

func TestTrailBranchProbabilitiesMatchSpec(t *testing.T) {
	env := oneTypeEnv(t, 0.01, 0, 0)
	m := branchModel(t, env, 0.7, 2)
	trail := audit.NewTrail()
	if _, err := Run(Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{2},
		Horizon: 2000, Seed: 11, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	est, err := stream.FromTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	pLeft, ok := est.TransitionProb("wf", "Check", "Left", 2, 0)
	if !ok {
		t.Fatal("no departures from Check observed")
	}
	if math.Abs(pLeft-0.7) > 0.05 {
		t.Errorf("estimated P(Check→Left) = %v, want ≈ 0.7", pLeft)
	}
	// The pseudo final state is synthesized, so the closing transitions
	// are observable too.
	if p, ok := est.TransitionProb("wf", "Left", "done", 1, 0); !ok || p != 1 {
		t.Errorf("P(Left→done) = %v (ok=%v), want 1", p, ok)
	}
}

// TestCollapsedTrailGolden pins the collapsed walker's trail byte for
// byte: the ingest workload replays it, so its JSON lines must not move
// when the true-concurrency walker's recording changes.
func TestCollapsedTrailGolden(t *testing.T) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(3), env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := Run(Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{3, 3, 4},
		Horizon: 300, Seed: 1, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := trail.WriteJSONLines(h); err != nil {
		t.Fatal(err)
	}
	const want = "096e871d481ca7465cca84a4fec556d2e904a593acae31ba0a564249db0558bf"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("collapsed trail of %d records hashes to %s, want %s", trail.Len(), got, want)
	}
}

// TestTrailRecordingPreservesDeterminism pins the no-perturbation
// contract: enabling the trail must not change the simulated run.
func TestTrailRecordingPreservesDeterminism(t *testing.T) {
	env := oneTypeEnv(t, 0.05, 0, 0)
	base := Params{
		Env: env, Models: []*spec.Model{simpleModel(t, env, 1, 1, 2)},
		Replicas: []int{2}, Horizon: 100, Seed: 9,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withTrail := base
	withTrail.Trail = audit.NewTrail()
	recorded, err := Run(withTrail)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, recorded) {
		t.Error("results differ with trail recording enabled")
	}
}
