package stream

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/workload"
)

var updateEstimates = flag.Bool("update", false, "rewrite testdata/ingest_estimates.txt from the current estimates")

// The ingest-steady trail: an EP deployment at (3,3,4) simulated at
// seed 1, sent as 100 JSON-lines batches of 2,000 records, gated by the
// thresholds a production daemon runs with.
const (
	pinBatches      = 100
	pinBatchRecords = 2000
)

var pinThresholds = Thresholds{
	Transition: 0.5, Residence: 0.5, Service: 0.5, Arrival: 0.5,
	MinDepartures: 1000, MinSamples: 1000,
}

// TestIngestEstimatesPinned folds the ingest-steady trail batch by batch,
// each batch decoded by audit.ReadRecords as /v1/events decodes it, and
// compares every drift score and the final snapshot against
// testdata/ingest_estimates.txt by float bit pattern. A change to the
// decoder or the estimator that moves one bit of any estimate fails it;
// one that moves an estimate on purpose reruns with -update and the
// diff shows every moved value.
func TestIngestEstimatesPinned(t *testing.T) {
	env, flow := workload.PaperEnvironment(), workload.EPWorkflow(3)
	m, err := spec.Build(flow, env)
	if err != nil {
		t.Fatal(err)
	}
	need := pinBatches * pinBatchRecords
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{3, 3, 4},
		Seed: 1, Horizon: float64(need) / 150, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	records := trail.Records()
	if len(records) < need {
		t.Fatalf("simulated trail has %d records, want %d", len(records), need)
	}

	var out bytes.Buffer
	fmt.Fprintln(&out, "# ingest-steady estimates: go test ./internal/stream -run IngestEstimatesPinned -update")
	est := NewEstimator(Options{})
	baseline := NewBaseline(env, []*spec.Workflow{flow})
	var body bytes.Buffer
	for b := 0; b < pinBatches; b++ {
		body.Reset()
		enc := json.NewEncoder(&body)
		for _, r := range records[b*pinBatchRecords : (b+1)*pinBatchRecords] {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := audit.ReadRecords(&body)
		if err != nil {
			t.Fatal(err)
		}
		est.ObserveBatch(recs)
		writeScore(&out, b, est.ScoreAgainst(baseline, pinThresholds))
	}
	snap, err := est.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	writeEstimates(&out, snap)

	path := filepath.Join("testdata", "ingest_estimates.txt")
	if *updateEstimates {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with go test ./internal/stream -run IngestEstimatesPinned -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := bytes.Split(out.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("estimates moved at line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("estimates moved: %d lines, want %d", len(got), len(exp))
	}
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// writeScore writes one batch's score. Of the top contributions only the
// changes are written, worst first: contributions with equal changes may
// be listed in either order, and with either one kept at the cut.
func writeScore(out *bytes.Buffer, batch int, s Score) {
	fmt.Fprintf(out, "score %d %s %s %s %s top", batch,
		bits(s.Transition), bits(s.Residence), bits(s.Service), bits(s.Arrival))
	for _, c := range s.Top {
		fmt.Fprintf(out, " %s", bits(c.Change))
	}
	fmt.Fprintln(out)
}

// writeEstimates writes every estimate, each map in key order.
func writeEstimates(out *bytes.Buffer, e *calibrate.Estimates) {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	moments := func(section string, key string, mp *calibrate.MomentPair) {
		add("%s %s %d %s %s", section, key, mp.N, bits(mp.Mean), bits(mp.SecondMoment))
	}
	for k, n := range e.TransitionCounts {
		add("transitions %q %q %q %d", k.Chart, k.From, k.To, n)
	}
	for k, n := range e.Departures {
		add("departures %q %q %d", k[0], k[1], n)
	}
	for k, mp := range e.Residence {
		moments("residence", fmt.Sprintf("%q %q", k[0], k[1]), mp)
	}
	for k, mp := range e.ActivityDurations {
		moments("activity", fmt.Sprintf("%q", k), mp)
	}
	for k, mp := range e.ServiceMoments {
		moments("service", fmt.Sprintf("%q", k), mp)
	}
	for k, mp := range e.WaitingMoments {
		moments("waiting", fmt.Sprintf("%q", k), mp)
	}
	for k, mp := range e.Turnarounds {
		moments("turnaround", fmt.Sprintf("%q", k), mp)
	}
	for k, r := range e.ArrivalRates {
		add("arrival %q %s", k, bits(r))
	}
	for k, n := range e.Starts {
		add("starts %q %d", k, n)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	fmt.Fprintf(out, "window %s\n", bits(e.Window))
}
