package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"performa/internal/audit"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/wfcommons"
	"performa/internal/wfjson"
)

// corpusDocs loads every checked-in corpus system as the wire document
// the daemon's endpoints accept, failing the test if the corpus shrank
// below its documented floor.
func corpusDocs(t *testing.T) map[string]wfjson.Document {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "corpus", "systems", "*.wfjson"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) < 20 {
		t.Fatalf("corpus has %d systems, want ≥ 20", len(paths))
	}
	docs := make(map[string]wfjson.Document, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var doc wfjson.Document
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		name := filepath.Base(p)
		docs[name[:len(name)-len(filepath.Ext(name))]] = doc
	}
	return docs
}

// TestAssessCorpusSystems drives every imported-workflow corpus system
// through /v1/assess end to end: decode on the wire, model build,
// performability evaluation — each must return a finite assessment
// under the corpus replica vector.
func TestAssessCorpusSystems(t *testing.T) {
	docs := corpusDocs(t)
	_, ts := newTestServer(t, Options{Workers: 4})
	for name, doc := range docs {
		replicas := make([]int, len(doc.Environment.Types))
		for i := range replicas {
			replicas[i] = wfcommons.DefaultReplicas
		}
		var resp AssessResponse
		status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
			System: doc,
			Config: replicas,
			Goals:  GoalsJSON{MaxUnavailability: 1e-3},
		}, &resp)
		if status != http.StatusOK {
			t.Errorf("%s: assess status = %d", name, status)
			continue
		}
		if len(resp.Assessment.Waiting) != len(replicas) {
			t.Errorf("%s: waiting arity %d, want %d", name, len(resp.Assessment.Waiting), len(replicas))
		}
		if mw := float64(resp.Assessment.MaxWaiting); !(mw > 0) || math.IsInf(mw, 0) || math.IsNaN(mw) {
			t.Errorf("%s: max waiting = %v", name, mw)
		}
		if a := resp.Assessment.Availability; !(a > 0 && a <= 1) {
			t.Errorf("%s: availability = %v", name, a)
		}
		if resp.Fingerprint == "" {
			t.Errorf("%s: empty fingerprint", name)
		}
	}
}

// TestRecommendCorpusSystems runs the greedy planner over a few corpus
// systems with reachable goals; the recommended configuration must be
// feasible and within the constraint box.
func TestRecommendCorpusSystems(t *testing.T) {
	docs := corpusDocs(t)
	_, ts := newTestServer(t, Options{Workers: 4})
	for _, name := range []string{"seismology-30", "blast-40", "genome-sequencing"} {
		doc, ok := docs[name]
		if !ok {
			t.Fatalf("corpus system %s missing", name)
		}
		k := len(doc.Environment.Types)
		maxReplicas := make([]int, k)
		for i := range maxReplicas {
			maxReplicas[i] = 6
		}
		var resp RecommendResponse
		status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
			System:      doc,
			Planner:     "greedy",
			Goals:       GoalsJSON{MaxWaiting: 10, MaxUnavailability: 1e-3},
			Constraints: ConstraintsJSON{MaxReplicas: maxReplicas},
		}, &resp)
		if status != http.StatusOK {
			t.Errorf("%s: recommend status = %d", name, status)
			continue
		}
		if len(resp.Config) != k {
			t.Errorf("%s: config arity %d, want %d", name, len(resp.Config), k)
			continue
		}
		if !resp.Assessment.Feasible {
			t.Errorf("%s: recommended config %v not feasible", name, resp.Config)
		}
		for x, y := range resp.Config {
			if y < 1 || y > maxReplicas[x] {
				t.Errorf("%s: config[%d] = %d outside [1, %d]", name, x, y, maxReplicas[x])
			}
		}
	}
}

// TestCalibrateCorpusSystem closes the loop on one corpus system: a
// simulated run of the converted model produces an audit trail, and
// /v1/calibrate re-derives a system from that trail whose arrival rate
// matches what the converter encoded.
func TestCalibrateCorpusSystem(t *testing.T) {
	const name = "sky-mosaic"
	doc := corpusDocs(t)[name]
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	env, flows, err := wfjson.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	models, err := spec.BuildAll(flows, env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	_, err = sim.Run(sim.Params{
		Env:      env,
		Models:   models,
		Replicas: wfcommons.Replicas(env),
		Seed:     11,
		Horizon:  1500,
		Warmup:   100,
		Trail:    trail,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stage-expanded corpus models emit dense trails (every Erlang stage
	// is a state entry), so the ~100 instances here exceed the daemon's
	// 8 MiB default body budget.
	_, ts := newTestServer(t, Options{Workers: 2, MaxBodyBytes: 64 << 20})
	var resp CalibrateResponse
	status := postJSON(t, ts.URL+"/v1/calibrate", CalibrateRequest{
		System:       doc,
		Trail:        trail.Records(),
		MinInstances: 20,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("calibrate status = %d", status)
	}
	want := flows[0].ArrivalRate
	got := resp.ArrivalRates[flows[0].Name]
	if got < want/2 || got > want*2 {
		t.Errorf("calibrated arrival rate = %v, want ≈ %v", got, want)
	}

	// The recalibrated system must itself assess cleanly.
	var as AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: resp.System,
		Config: wfcommons.Replicas(env),
		Goals:  GoalsJSON{MaxUnavailability: 1e-3},
	}, &as); status != http.StatusOK {
		t.Fatalf("post-calibrate assess status = %d", status)
	}
	if as.Fingerprint != resp.Fingerprint {
		t.Errorf("fingerprint mismatch: assess %s, calibrate %s", as.Fingerprint, resp.Fingerprint)
	}
}
