package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// goldenSystem is the set-up of the walker goldens: a two-type
// environment whose servers fail and get repaired often enough to
// exercise failover within a short run, and a workflow whose chart has
// an Erlang-staged activity, a loop back to it, and an AND state whose
// second branch nests another AND state, mixed with simpleModel's
// one-activity workflow.
func goldenSystem(t *testing.T) (*spec.Environment, []*spec.Model) {
	t.Helper()
	mk := func(name string, b float64) spec.ServerType {
		m, m2 := spec.ExpServiceMoments(b)
		return spec.ServerType{Name: name, Kind: spec.Engine, MeanService: m, ServiceSecondMoment: m2,
			FailureRate: 0.02, RepairRate: 0.5}
	}
	env, err := spec.NewEnvironment(mk("srv", 0.04), mk("db", 0.03))
	if err != nil {
		t.Fatal(err)
	}
	branch := func(name, state, activity string) *statechart.Chart {
		return statechart.NewBuilder(name).Initial("init").Activity(state, activity).Final("fin").
			Transition("init", state, 1).Transition(state, "fin", 1).MustBuild()
	}
	right := statechart.NewBuilder("right").Initial("init").
		Nested("Inner", branch("x", "X", "x"), branch("y", "Y", "y")).Final("fin").
		Transition("init", "Inner", 1).Transition("Inner", "fin", 1).MustBuild()
	chart := statechart.NewBuilder("order").
		Initial("init").
		Activity("Prep", "prep").
		Nested("Par", branch("left", "Pick", "pick"), right).
		Activity("Review", "review").
		Final("done").
		Transition("init", "Prep", 1).
		Transition("Prep", "Par", 1).
		Transition("Par", "Review", 1).
		Transition("Review", "Prep", 0.3).
		Transition("Review", "done", 0.7).
		MustBuild()
	w := &spec.Workflow{
		Name:  "order",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"prep":   {Name: "prep", MeanDuration: 1.5, DurationStages: 3, Load: map[string]float64{"srv": 2, "db": 1.5}},
			"pick":   {Name: "pick", MeanDuration: 0.8, Load: map[string]float64{"srv": 1}},
			"x":      {Name: "x", MeanDuration: 0.6, Load: map[string]float64{"db": 2.5}},
			"y":      {Name: "y", MeanDuration: 0.9, DurationStages: 2, Load: map[string]float64{"srv": 0.5, "db": 1}},
			"review": {Name: "review", MeanDuration: 0.4, Load: map[string]float64{"srv": 1.2}},
		},
		ArrivalRate: 0.4,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	simple := statechart.NewBuilder("wf").Initial("init").Activity("A", "act").Final("done").
		Transition("init", "A", 1).Transition("A", "done", 1).MustBuild()
	sm, err := spec.Build(&spec.Workflow{
		Name: "wf", Chart: simple, ArrivalRate: 0.3,
		Profiles: map[string]spec.ActivityProfile{"act": {Name: "act", MeanDuration: 1, Load: map[string]float64{"srv": 1, "db": 1}}},
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	return env, []*spec.Model{m, sm}
}

// TestConcurrentTrailGolden pins the true-concurrency walker's trail
// byte for byte over goldenSystem's charts: every chart level, the
// Erlang stages, the loop, the nested fork/joins and the attributed
// service requests.
func TestConcurrentTrailGolden(t *testing.T) {
	env, models := goldenSystem(t)
	trail := audit.NewTrail()
	if _, err := Run(Params{
		Env: env, Models: models, Replicas: []int{2, 2},
		Horizon: 150, Seed: 5, TrueConcurrency: true, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := trail.WriteJSONLines(h); err != nil {
		t.Fatal(err)
	}
	const want = "b6025ca8182529fbfa2263fbb8e621f41e4e2e7bde98e8edaba6dd2f058ade50"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("true-concurrency trail of %d records hashes to %s, want %s", trail.Len(), got, want)
	}
}

// TestResultGolden pins both walkers' measurements with failures on:
// the turnaround and waiting moments, the fired events and the
// completions, rendered at full precision and hashed.
func TestResultGolden(t *testing.T) {
	env, models := goldenSystem(t)
	for _, tc := range []struct {
		name       string
		concurrent bool
		want       string
	}{
		{"collapsed", false, "1b324f1a029c301c663ad8d7458ac0ee88d24acf0302b78681909237c620a85c"},
		{"true-concurrency", true, "a6ae16b40fb8376996a95d52788456b7aa2149d95eb810b488d17665f05632db"},
	} {
		res, err := Run(Params{
			Env: env, Models: models, Replicas: []int{2, 2},
			Horizon: 3000, Warmup: 100, Seed: 3, EnableFailures: true, TrueConcurrency: tc.concurrent,
		})
		if err != nil {
			t.Fatal(err)
		}
		text := fmt.Sprintf("turnaround %+v\nwaiting %+v\nevents %d\ncompleted %v\n",
			res.Turnaround, res.Waiting, res.Events, res.Completed)
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: result hashes to %s, want %s:\n%s", tc.name, got, tc.want, text)
		}
	}
}
