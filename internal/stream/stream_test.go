package stream

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/wfmserr"
	"performa/internal/workload"
)

// syntheticTrail produces a small deterministic trail exercising every
// record kind: two instances of a two-branch workflow, one taking each
// branch, with activities and service requests.
func syntheticTrail() []audit.Record {
	return []audit.Record{
		{Kind: audit.InstanceStarted, Time: 0, Workflow: "wf", Instance: 1},
		{Kind: audit.StateEntered, Time: 0, Workflow: "wf", Instance: 1, Chart: "wf", State: "init"},
		{Kind: audit.StateLeft, Time: 0.5, Workflow: "wf", Instance: 1, Chart: "wf", State: "init"},
		{Kind: audit.StateEntered, Time: 0.5, Workflow: "wf", Instance: 1, Chart: "wf", State: "A"},
		{Kind: audit.ActivityStarted, Time: 0.5, Workflow: "wf", Instance: 1, Activity: "a"},
		{Kind: audit.ServiceRequest, Time: 1.0, ServerType: "srv", Waiting: 0.1, Service: 0.4},
		{Kind: audit.ActivityCompleted, Time: 1.5, Workflow: "wf", Instance: 1, Activity: "a"},
		{Kind: audit.StateLeft, Time: 1.5, Workflow: "wf", Instance: 1, Chart: "wf", State: "A"},
		{Kind: audit.StateEntered, Time: 1.5, Workflow: "wf", Instance: 1, Chart: "wf", State: "final"},
		{Kind: audit.InstanceCompleted, Time: 1.6, Workflow: "wf", Instance: 1},

		{Kind: audit.InstanceStarted, Time: 2, Workflow: "wf", Instance: 2},
		{Kind: audit.StateEntered, Time: 2, Workflow: "wf", Instance: 2, Chart: "wf", State: "init"},
		{Kind: audit.StateLeft, Time: 2.25, Workflow: "wf", Instance: 2, Chart: "wf", State: "init"},
		{Kind: audit.StateEntered, Time: 2.25, Workflow: "wf", Instance: 2, Chart: "wf", State: "B"},
		{Kind: audit.ActivityStarted, Time: 2.25, Workflow: "wf", Instance: 2, Activity: "b"},
		{Kind: audit.ServiceRequest, Time: 2.5, ServerType: "srv", Waiting: 0.2, Service: 0.6},
		{Kind: audit.ActivityCompleted, Time: 3.0, Workflow: "wf", Instance: 2, Activity: "b"},
		{Kind: audit.StateLeft, Time: 3.0, Workflow: "wf", Instance: 2, Chart: "wf", State: "B"},
		{Kind: audit.StateEntered, Time: 3.0, Workflow: "wf", Instance: 2, Chart: "wf", State: "final"},
		{Kind: audit.InstanceCompleted, Time: 3.1, Workflow: "wf", Instance: 2},
	}
}

// TestSnapshotSyntheticEstimates pins the estimator's arithmetic on the
// synthetic trail against hand-computed values, through both the
// streaming entry and the batch one.
func TestSnapshotSyntheticEstimates(t *testing.T) {
	recs := syntheticTrail()
	est := NewEstimator(Options{})
	est.ObserveBatch(recs)
	streamed, err := est.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	trail := audit.NewTrail()
	trail.AppendBatch(recs)
	batch, err := FromTrail(trail)
	if err != nil {
		t.Fatalf("FromTrail: %v", err)
	}
	if !reflect.DeepEqual(streamed, batch) {
		t.Errorf("batch entry differs from the streamed snapshot:\n got %+v\nwant %+v", batch, streamed)
	}

	got := streamed
	wantCounts := map[calibrate.TransitionKey]uint64{
		{Chart: "wf", From: "init", To: "A"}:  1,
		{Chart: "wf", From: "init", To: "B"}:  1,
		{Chart: "wf", From: "A", To: "final"}: 1,
		{Chart: "wf", From: "B", To: "final"}: 1,
	}
	if !reflect.DeepEqual(got.TransitionCounts, wantCounts) {
		t.Errorf("transition counts = %v, want %v", got.TransitionCounts, wantCounts)
	}
	wantDepartures := map[[2]string]uint64{{"wf", "init"}: 2, {"wf", "A"}: 1, {"wf", "B"}: 1}
	if !reflect.DeepEqual(got.Departures, wantDepartures) {
		t.Errorf("departures = %v, want %v", got.Departures, wantDepartures)
	}
	moments := func(what string, mp *calibrate.MomentPair, n uint64, mean, second float64) {
		t.Helper()
		if mp == nil || mp.N != n || math.Abs(mp.Mean-mean) > 1e-12 || math.Abs(mp.SecondMoment-second) > 1e-12 {
			t.Errorf("%s = %+v, want N %d mean %v second moment %v", what, mp, n, mean, second)
		}
	}
	moments("residence(init)", got.Residence[[2]string{"wf", "init"}], 2, 0.375, 0.15625)
	moments("residence(A)", got.Residence[[2]string{"wf", "A"}], 1, 1, 1)
	moments("residence(B)", got.Residence[[2]string{"wf", "B"}], 1, 0.75, 0.5625)
	moments("duration(a)", got.ActivityDurations["a"], 1, 1, 1)
	moments("duration(b)", got.ActivityDurations["b"], 1, 0.75, 0.5625)
	moments("service(srv)", got.ServiceMoments["srv"], 2, 0.5, 0.26)
	moments("waiting(srv)", got.WaitingMoments["srv"], 2, 0.15, 0.025)
	moments("turnaround(wf)", got.Turnarounds["wf"], 2, 1.35, (1.6*1.6+1.1*1.1)/2)
	if got.Starts["wf"] != 2 || math.Abs(got.ArrivalRates["wf"]-0.5) > 1e-12 {
		t.Errorf("starts %d, arrival rate %v; want 2 starts 2 apart = 0.5", got.Starts["wf"], got.ArrivalRates["wf"])
	}
	if math.Abs(got.Window-3.1) > 1e-12 {
		t.Errorf("window = %v, want 3.1", got.Window)
	}
}

// TestFromTrailSimulatorTrail folds a true-concurrency simulator trail —
// interleaved concurrent instances, nested charts, waiting times,
// turnarounds — and checks the estimates against what the trail itself
// states: every started and every completed instance is counted, every
// service request lands in its type's moments, and each state's
// outgoing counts sum to its departures.
func TestFromTrailSimulatorTrail(t *testing.T) {
	env := workload.PaperEnvironment()
	w := workload.EPWorkflow(5)
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{2, 2, 2},
		Seed: 7, Horizon: 40, TrueConcurrency: true, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	starts := uint64(len(trail.Filter(audit.InstanceStarted)))
	completions := uint64(len(trail.Filter(audit.InstanceCompleted)))
	if starts < 100 || completions == 0 {
		t.Fatalf("trail has %d starts, %d completions", starts, completions)
	}
	got, err := FromTrail(trail)
	if err != nil {
		t.Fatalf("FromTrail: %v", err)
	}
	if got.Starts[w.Name] != starts {
		t.Errorf("starts = %d, want the trail's %d", got.Starts[w.Name], starts)
	}
	if mp := got.Turnarounds[w.Name]; mp == nil || mp.N != completions || !(mp.Mean > 0) {
		t.Errorf("turnarounds = %+v, want the trail's %d positive samples", mp, completions)
	}
	var served uint64
	for _, mp := range got.ServiceMoments {
		served += mp.N
	}
	if want := uint64(len(trail.Filter(audit.ServiceRequest))); served != want {
		t.Errorf("service samples = %d, want the trail's %d service requests", served, want)
	}
	out := map[[2]string]uint64{}
	for k, n := range got.TransitionCounts {
		out[[2]string{k.Chart, k.From}] += n
	}
	if !reflect.DeepEqual(out, got.Departures) {
		t.Errorf("per-state transition counts %v do not sum to departures %v", out, got.Departures)
	}
}

// TestFromTrailKeepsEveryOpenInstance: a complete trail may hold more
// concurrently open instances than a live estimator's default in-flight
// bound; the batch entry sizes the bound to the trail, so no turnaround
// is lost, where the default-bounded estimator drops the excess.
func TestFromTrailKeepsEveryOpenInstance(t *testing.T) {
	const n = 1<<16 + 1000
	recs := make([]audit.Record, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		recs = append(recs, audit.Record{Kind: audit.InstanceStarted, Time: float64(i), Workflow: "wf", Instance: i})
	}
	for i := uint64(0); i < n; i++ {
		recs = append(recs, audit.Record{Kind: audit.InstanceCompleted, Time: float64(n + i), Workflow: "wf", Instance: i})
	}
	trail := audit.NewTrail()
	trail.AppendBatch(recs)
	got, err := FromTrail(trail)
	if err != nil {
		t.Fatal(err)
	}
	if mp := got.Turnarounds["wf"]; mp == nil || mp.N != n || mp.Mean != n {
		t.Errorf("turnarounds = %+v, want %d samples of %d", mp, n, n)
	}
	bounded := NewEstimator(Options{})
	bounded.ObserveBatch(recs)
	if bounded.Dropped() != 1000 {
		t.Errorf("default-bounded estimator dropped %d instances, want 1000", bounded.Dropped())
	}
}

func TestSnapshotEmptyIsTypedError(t *testing.T) {
	est := NewEstimator(Options{})
	_, err := est.Snapshot()
	if err == nil {
		t.Fatal("Snapshot on empty estimator: want error")
	}
	if !errors.Is(err, wfmserr.ErrInvalidModel) {
		t.Errorf("error %v: want invalid_model code, got %q", err, wfmserr.CodeOf(err))
	}
}

func TestIncrementalEqualsBatch(t *testing.T) {
	recs := syntheticTrail()
	one := NewEstimator(Options{})
	for i := range recs {
		one.ObserveBatch(recs[i : i+1])
	}
	batch := NewEstimator(Options{})
	batch.ObserveBatch(recs)
	a, err := one.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batch.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("record-at-a-time and batched ingestion disagree")
	}
}

func TestInFlightPruning(t *testing.T) {
	est := NewEstimator(Options{})
	est.ObserveBatch(syntheticTrail())
	if n := est.InFlight(); n != 0 {
		t.Errorf("InFlight after all instances completed = %d, want 0", n)
	}
	est.mu.Lock()
	defer est.mu.Unlock()
	if len(est.insts) != 0 {
		t.Errorf("in-flight map not pruned: %d instances left", len(est.insts))
	}
}

func TestMaxInFlightDropsTracking(t *testing.T) {
	est := NewEstimator(Options{MaxInFlight: 1})
	est.ObserveBatch([]audit.Record{
		{Kind: audit.InstanceStarted, Time: 0, Workflow: "wf", Instance: 1},
		{Kind: audit.InstanceStarted, Time: 1, Workflow: "wf", Instance: 2},
		{Kind: audit.InstanceStarted, Time: 2, Workflow: "wf", Instance: 3},
	})
	if got := est.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1", got)
	}
	if got := est.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	// Arrival statistics still count every start.
	snap, err := est.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Starts["wf"] != 3 {
		t.Errorf("Starts = %d, want 3", snap.Starts["wf"])
	}
	if want := 2.0 / 2.0; math.Abs(snap.ArrivalRates["wf"]-want) > 1e-12 {
		t.Errorf("ArrivalRates = %v, want %v", snap.ArrivalRates["wf"], want)
	}
}

func TestExponentialDecayTracksRecentPast(t *testing.T) {
	// Service means: an old regime at 1.0, a recent regime at 2.0. The
	// estimator keeps all history, so the mean sits midway.
	var recs []audit.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, audit.Record{Kind: audit.ServiceRequest, Time: float64(i), ServerType: "srv", Service: 1.0})
	}
	for i := 50; i < 100; i++ {
		recs = append(recs, audit.Record{Kind: audit.ServiceRequest, Time: float64(i), ServerType: "srv", Service: 2.0})
	}

	flat := NewEstimator(Options{})
	flat.ObserveBatch(recs)
	fs, err := flat.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m := fs.ServiceMoments["srv"].Mean; math.Abs(m-1.5) > 1e-9 {
		t.Errorf("undecayed mean = %v, want 1.5", m)
	}
}

// TestSnapshotIsACopy: a snapshot is the state at the time it was
// taken. Records observed afterwards must not reach it through a moment
// pair or a count map it shares with the estimator.
func TestSnapshotIsACopy(t *testing.T) {
	recs := syntheticTrail()
	snapshot := func(est *Estimator) *calibrate.Estimates {
		t.Helper()
		snap, err := est.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	est := NewEstimator(Options{})
	est.ObserveBatch(recs[:10])
	before := snapshot(est)
	est.ObserveBatch(recs[10:])

	// An estimator that stopped where the snapshot was taken.
	stopped := NewEstimator(Options{})
	stopped.ObserveBatch(recs[:10])
	if want := snapshot(stopped); !reflect.DeepEqual(before, want) {
		t.Errorf("a snapshot changed after more records were observed:\n got %+v\nwant %+v", before, want)
	}
	if n := snapshot(est).ServiceMoments["srv"].N; n != 2 {
		t.Errorf("service samples after the second batch = %d, want 2", n)
	}
}

func TestZeroHalfLifeIsExactCounting(t *testing.T) {
	est := NewEstimator(Options{})
	for i := 0; i < 1000; i++ {
		est.ObserveBatch([]audit.Record{{Kind: audit.ServiceRequest, Time: float64(i), ServerType: "srv", Service: 1}})
	}
	snap, err := est.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.ServiceMoments["srv"].N; n != 1000 {
		t.Errorf("N = %d, want exactly 1000", n)
	}
}

func TestConcurrentObserveIsRaceClean(t *testing.T) {
	est := NewEstimator(Options{})
	recs := syntheticTrail()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				batch := make([]audit.Record, len(recs))
				copy(batch, recs)
				for j := range batch {
					batch[j].Instance += uint64(g*1000 + i*10)
				}
				est.ObserveBatch(batch)
			}
		}(g)
	}
	// Concurrent readers exercise Snapshot and the drift scorer.
	base := &Baseline{
		Transitions: map[calibrate.TransitionKey]float64{
			{Chart: "wf", From: "init", To: "A"}: 0.5,
			{Chart: "wf", From: "init", To: "B"}: 0.5,
		},
		Activities: map[string]float64{"a": 1, "b": 0.75},
		Service:    map[string]float64{"srv": 0.5},
		Arrivals:   map[string]float64{"wf": 0.5},
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, _ = est.Snapshot()
				_ = est.ScoreAgainst(base, Thresholds{})
				_ = est.Events()
				_ = est.InFlight()
			}
		}()
	}
	wg.Wait()
	if got, want := est.Events(), uint64(8*50*len(recs)); got != want {
		t.Errorf("Events = %d, want %d", got, want)
	}
}
