package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/stream"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

// ingestSystem is a small branching system for the online-calibration
// tests: init → a; a → b (0.9) | c (0.1); both → done. The designed
// parameters are deliberately different from what ingestRecords
// observes, so streaming a trail drifts the model.
func ingestSystem(t testing.TB) (*spec.Environment, []*spec.Workflow, wfjson.Document) {
	t.Helper()
	env, err := spec.NewEnvironment(spec.ServerType{
		Name: "eng", Kind: spec.Engine,
		MeanService: 0.1, ServiceSecondMoment: 0.02,
		FailureRate: 1e-4, RepairRate: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chart := statechart.NewBuilder("wf").
		Initial("init").
		Activity("a", "A").
		Activity("b", "B").
		Activity("c", "C").
		Final("done").
		Transition("init", "a", 1).
		Transition("a", "b", 0.9).
		Transition("a", "c", 0.1).
		Transition("b", "done", 1).
		Transition("c", "done", 1).
		MustBuild()
	w := &spec.Workflow{
		Name:        "wf",
		Chart:       chart,
		ArrivalRate: 0.2,
		Profiles: map[string]spec.ActivityProfile{
			"A": {Name: "A", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
			"B": {Name: "B", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
			"C": {Name: "C", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
		},
	}
	doc, err := wfjson.ToDocument(env, []*spec.Workflow{w})
	if err != nil {
		t.Fatal(err)
	}
	return env, []*spec.Workflow{w}, *doc
}

// ingestRecords emits n completed instances of the ingest system with an
// even a→b / a→c split (vs the designed 0.9/0.1), activity A running for
// 2 time units (vs the designed 1), service times of 0.2 (vs 0.1), and
// starts spaced 5 apart — an arrival rate of exactly 0.2, matching the
// designed one. Times begin at t0 so consecutive batches can continue
// the same stream without bending the arrival estimate.
func ingestRecords(n int, t0 float64) []audit.Record {
	recs := make([]audit.Record, 0, 10*n)
	now := t0
	for i := 0; i < n; i++ {
		inst := uint64(t0) + uint64(i+1)
		branch := "b"
		if i%2 == 1 {
			branch = "c"
		}
		recs = append(recs,
			audit.Record{Kind: audit.InstanceStarted, Time: now, Workflow: "wf", Instance: inst},
			audit.Record{Kind: audit.StateEntered, Time: now, Workflow: "wf", Instance: inst, Chart: "wf", State: "a"},
			audit.Record{Kind: audit.ActivityStarted, Time: now, Instance: inst, Activity: "A"},
			audit.Record{Kind: audit.ActivityCompleted, Time: now + 2, Instance: inst, Activity: "A"},
			audit.Record{Kind: audit.StateLeft, Time: now + 2, Workflow: "wf", Instance: inst, Chart: "wf", State: "a"},
			audit.Record{Kind: audit.StateEntered, Time: now + 2, Workflow: "wf", Instance: inst, Chart: "wf", State: branch},
			audit.Record{Kind: audit.StateLeft, Time: now + 3, Workflow: "wf", Instance: inst, Chart: "wf", State: branch},
			audit.Record{Kind: audit.StateEntered, Time: now + 3, Workflow: "wf", Instance: inst, Chart: "wf", State: "done"},
			audit.Record{Kind: audit.InstanceCompleted, Time: now + 3, Workflow: "wf", Instance: inst},
			audit.Record{Kind: audit.ServiceRequest, Time: now, ServerType: "eng", Waiting: 0.05, Service: 0.2},
		)
		now += 5
	}
	return recs
}

// postEvents streams records to /v1/events as JSON lines and decodes the
// reply (on 200) or the error body (otherwise).
func postEvents(t testing.TB, baseURL, fingerprint string, recs []audit.Record) (int, EventsResponse, ErrorResponse) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	url := baseURL + "/v1/events"
	if fingerprint != "" {
		url += "?fingerprint=" + fingerprint
	}
	resp, err := http.Post(url, "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ok EventsResponse
	var fail ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("decoding events response: %v\n%s", err, raw)
		}
	} else if err := json.Unmarshal(raw, &fail); err != nil {
		t.Fatalf("decoding error response: %v\n%s", err, raw)
	}
	return resp.StatusCode, ok, fail
}

// TestDriftInvalidatesAndRecalibrates is the acceptance scenario for the
// online calibration loop: a warmed model whose designed transition
// probabilities (0.9/0.1) differ from the streamed behavior (0.5/0.5) is
// invalidated by /v1/events, and the next /v1/assess rebuilds from the
// streamed estimates — bit-identical to a direct build from the same
// estimates.
func TestDriftInvalidatesAndRecalibrates(t *testing.T) {
	_, _, doc := ingestSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	goals := GoalsJSON{MaxWaiting: 0.5, MaxUnavailability: 1e-2}
	req := AssessRequest{System: doc, Config: []int{2}, Goals: goals}

	// Warm the designed model.
	var first AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", req, &first); status != http.StatusOK {
		t.Fatalf("warmup assess status = %d", status)
	}
	fp := first.Fingerprint

	// Stream a drifted trail: one batch crosses the threshold and evicts
	// the warm model.
	recs := ingestRecords(120, 0)
	status, ev, _ := postEvents(t, ts.URL, fp, recs)
	if status != http.StatusOK {
		t.Fatalf("events status = %d", status)
	}
	if !ev.Invalidated || !ev.Drifted {
		t.Fatalf("drifted trail did not invalidate: %+v", ev)
	}
	if ev.Generation != 1 || ev.Invalidations != 1 {
		t.Errorf("generation = %d, invalidations = %d, want 1, 1", ev.Generation, ev.Invalidations)
	}
	if ev.Evicted < 1 {
		t.Errorf("evicted = %d, want ≥ 1 warm entries dropped", ev.Evicted)
	}
	if ev.Records != len(recs) || ev.TotalEvents != uint64(len(recs)) {
		t.Errorf("accounting: records %d / total %d, want %d", ev.Records, ev.TotalEvents, len(recs))
	}
	if ev.Drift.Transition <= 0.25 {
		t.Errorf("transition drift = %v, want above threshold", ev.Drift.Transition)
	}

	// The direct reference: the same records through the same estimator
	// arithmetic, applied to the posted document with the server's
	// recalibration options, assessed by the direct planner call.
	env, flows, err := wfjson.FromDocument(&doc)
	if err != nil {
		t.Fatal(err)
	}
	est := stream.NewEstimator(stream.Options{})
	est.ObserveBatch(recs)
	snap, err := est.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*spec.Workflow, len(flows))
	for i, w := range flows {
		clones[i] = w.Clone()
	}
	measuredEnv, err := snap.ApplySystem(env, clones, calibrate.Options{Smoothing: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	models, err := spec.BuildAll(clones, measuredEnv)
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := perf.NewAnalysis(measuredEnv, models)
	if err != nil {
		t.Fatal(err)
	}
	want, err := config.Assess(analysis, perf.Config{Replicas: []int{2}},
		config.Goals{MaxWaiting: 0.5, MaxUnavailability: 1e-2}, directOptions())
	if err != nil {
		t.Fatal(err)
	}

	// The next assess misses the invalidated cache, rebuilds from the
	// streamed estimates, and answers exactly like the direct build.
	var second AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", req, &second); status != http.StatusOK {
		t.Fatalf("post-drift assess status = %d", status)
	}
	if second.CacheWarm {
		t.Error("post-drift assess hit a warm cache; invalidation did not evict")
	}
	if second.Fingerprint != fp {
		t.Errorf("post-drift fingerprint %s, want posted %s", second.Fingerprint, fp)
	}
	assertAssessmentMatches(t, "recalibrated", second.Assessment, want)

	// The recalibration moved the answer: the designed model's numbers
	// must not survive the rebuild.
	if second.Assessment.Waiting[0] == first.Assessment.Waiting[0] {
		t.Error("recalibrated waiting time identical to designed model; rebuild used stale parameters")
	}

	// The rebuild re-baselines drift: the stream reports calm again.
	var dr DriftResponse
	if status := getJSON(t, ts.URL+"/v1/drift?fingerprint="+fp, &dr); status != http.StatusOK {
		t.Fatalf("drift status = %d", status)
	}
	if len(dr.Streams) != 1 {
		t.Fatalf("drift streams = %d, want 1", len(dr.Streams))
	}
	if dr.Streams[0].Drifted {
		t.Error("stream still drifted after recalibrated rebuild")
	}
	if dr.Streams[0].Generation != 1 {
		t.Errorf("generation = %d, want 1", dr.Streams[0].Generation)
	}

	// More behavior of the same shape (times continuing the stream) does
	// not re-trigger: the estimates now match the recalibrated baseline.
	status, ev, _ = postEvents(t, ts.URL, fp, ingestRecords(40, 600))
	if status != http.StatusOK {
		t.Fatalf("follow-up events status = %d", status)
	}
	if ev.Invalidated || ev.Drifted {
		t.Errorf("matching behavior re-invalidated the model: %+v", ev.Drift)
	}

	// And the generation-1 model is warm for subsequent requests.
	var third AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", req, &third); status != http.StatusOK {
		t.Fatalf("third assess status = %d", status)
	}
	if !third.CacheWarm {
		t.Error("recalibrated model entry was not reused")
	}
	assertAssessmentMatches(t, "recalibrated-warm", third.Assessment, want)
}

// TestOverflowingDriftScoreIsEncoded is the regression for a drift score
// encoding/json cannot write: service times of 1e308 against the paper
// system's millisecond means make the relative change +Inf. The events
// reply, the advisory the crossing triggers and /v1/drift must carry it
// as "Infinity", where they used to send a 200 with an empty body.
func TestOverflowingDriftScoreIsEncoded(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2, Reconfigure: true})
	var reg DeploymentJSON
	if status := postJSON(t, ts.URL+"/v1/deployments", DeploymentRequest{
		System: doc, Config: []int{2, 2, 3}, Goals: GoalsJSON{MaxUnavailability: 1e-5},
	}, &reg); status != http.StatusOK {
		t.Fatalf("deployment status = %d", status)
	}
	recs := make([]audit.Record, 60)
	for i := range recs {
		recs[i] = audit.Record{Kind: audit.ServiceRequest, Time: float64(i), ServerType: doc.Environment.Types[0].Name, Service: 1e308}
	}
	status, ev, _ := postEvents(t, ts.URL, reg.Fingerprint, recs)
	if status != http.StatusOK || !ev.Invalidated || !math.IsInf(float64(ev.Drift.Service), 1) {
		t.Fatalf("events: status %d, invalidated %v, service drift %v; want 200, true, +Inf", status, ev.Invalidated, ev.Drift.Service)
	}
	adv := waitAdvisories(t, ts.URL+"/v1/advisories", 1)[0]
	if !math.IsInf(float64(adv.Trigger.Service), 1) {
		t.Errorf("advisory trigger service score = %v, want +Inf", adv.Trigger.Service)
	}
	var drift DriftResponse
	if status := getJSON(t, ts.URL+"/v1/drift", &drift); status != http.StatusOK || len(drift.Streams) != 1 ||
		!math.IsInf(float64(drift.Streams[0].MaxScore), 1) {
		t.Errorf("/v1/drift: status %d, %+v; want one stream at max score +Inf", status, drift.Streams)
	}
}

func TestEventsRequiresWarmModel(t *testing.T) {
	_, _, doc := ingestSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	recs := ingestRecords(2, 0)

	// Missing fingerprint → 400.
	if status, _, _ := postEvents(t, ts.URL, "", recs); status != http.StatusBadRequest {
		t.Errorf("missing fingerprint status = %d, want 400", status)
	}

	// Unknown fingerprint → 404 not_found.
	status, _, fail := postEvents(t, ts.URL, "feedcafe", recs)
	if status != http.StatusNotFound {
		t.Errorf("unknown fingerprint status = %d, want 404", status)
	}
	if fail.Code != "not_found" {
		t.Errorf("error code = %q, want not_found", fail.Code)
	}

	// The fingerprint is resolved before the body is read: a body at the
	// 8 MiB limit, not one record in it, is still 404 and not 400.
	status, fail = postRaw(t, ts.URL+"/v1/events?fingerprint=feedcafe", strings.Repeat("x", 8<<20))
	if status != http.StatusNotFound || fail.Code != "not_found" {
		t.Errorf("unknown fingerprint with an 8 MiB body: status/code = %d/%q, want 404/not_found", status, fail.Code)
	}

	// After warming the model the same fingerprint accepts events.
	var as AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc, Config: []int{2}, Goals: GoalsJSON{MaxUnavailability: 1e-2},
	}, &as); status != http.StatusOK {
		t.Fatalf("assess status = %d", status)
	}
	if status, ev, _ := postEvents(t, ts.URL, as.Fingerprint, recs); status != http.StatusOK || ev.Records != len(recs) {
		t.Errorf("post-warmup events status = %d, records = %d", status, ev.Records)
	}

	// Empty batch → 400.
	if status, _, _ := postEvents(t, ts.URL, as.Fingerprint, nil); status != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", status)
	}

	// Malformed body → 400.
	resp, err := http.Post(ts.URL+"/v1/events?fingerprint="+as.Fingerprint,
		"application/x-ndjson", strings.NewReader("{not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}

	// /v1/drift for a fingerprint without a stream → 404.
	if status := getJSON(t, ts.URL+"/v1/drift?fingerprint=deadbeef", nil); status != http.StatusNotFound {
		t.Errorf("unknown drift filter status = %d, want 404", status)
	}
}

// TestConcurrentEventWriters is the race-cleanliness acceptance check:
// 8 writers streaming batches for the same system concurrently with
// assess requests and drift reads, every record accounted for.
func TestConcurrentEventWriters(t *testing.T) {
	_, _, doc := ingestSystem(t)
	_, ts := newTestServer(t, Options{Workers: 4})

	req := AssessRequest{System: doc, Config: []int{2}, Goals: GoalsJSON{MaxUnavailability: 1e-2}}
	var as AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", req, &as); status != http.StatusOK {
		t.Fatalf("assess status = %d", status)
	}
	fp := as.Fingerprint

	const writers = 8
	const batches = 10
	recs := ingestRecords(5, 0)
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				status, _, fail := postEvents(t, ts.URL, fp, recs)
				if status != http.StatusOK {
					errs <- fmt.Errorf("writer %d batch %d: status %d (%s)", w, b, status, fail.Error)
					return
				}
			}
		}(w)
	}
	// Readers race the writers: drift reports and assess requests must
	// stay coherent while batches stream in.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var dr DriftResponse
				if status := getJSON(t, ts.URL+"/v1/drift", &dr); status != http.StatusOK {
					errs <- fmt.Errorf("drift status %d", status)
					return
				}
				var resp AssessResponse
				if status := postJSON(t, ts.URL+"/v1/assess", req, &resp); status != http.StatusOK {
					errs <- fmt.Errorf("assess status %d", status)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var dr DriftResponse
	if status := getJSON(t, ts.URL+"/v1/drift?fingerprint="+fp, &dr); status != http.StatusOK {
		t.Fatalf("final drift status = %d", status)
	}
	if want := uint64(writers * batches * len(recs)); dr.Streams[0].Events != want {
		t.Errorf("events = %d, want %d (lost updates)", dr.Streams[0].Events, want)
	}
	if dr.Streams[0].Batches != writers*batches {
		t.Errorf("batches = %d, want %d", dr.Streams[0].Batches, writers*batches)
	}
}

func TestIngestMetricsAndStats(t *testing.T) {
	_, _, doc := ingestSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	var as AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc, Config: []int{2}, Goals: GoalsJSON{MaxUnavailability: 1e-2},
	}, &as); status != http.StatusOK {
		t.Fatalf("assess status = %d", status)
	}
	recs := ingestRecords(120, 0)
	if status, ev, _ := postEvents(t, ts.URL, as.Fingerprint, recs); status != http.StatusOK || !ev.Invalidated {
		t.Fatalf("events status = %d, invalidated = %v", status, ev.Invalidated)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		fmt.Sprintf("wfmsd_events_ingested_total %d", len(recs)),
		"wfmsd_event_batches_total 1",
		"wfmsd_drift_invalidations_total 1",
		"wfmsd_ingest_streams 1",
		fmt.Sprintf("wfmsd_drift_score{fingerprint=%q,dimension=\"transition\"}", as.Fingerprint),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if stats.Ingest.Streams != 1 || stats.Ingest.Events != uint64(len(recs)) ||
		stats.Ingest.Batches != 1 || stats.Ingest.Invalidations != 1 {
		t.Errorf("ingest stats = %+v", stats.Ingest)
	}
}

// TestStreamRegistryEviction bounds the per-system streams: warming more
// systems than MaxStreams ages the oldest stream out.
func TestStreamRegistryEviction(t *testing.T) {
	env := workload.PaperEnvironment()
	_, ts := newTestServer(t, Options{Workers: 2, MaxStreams: 2})

	var fps []string
	for _, users := range []float64{2, 3, 4} {
		doc, err := wfjson.ToDocument(env, []*spec.Workflow{workload.EPWorkflow(users)})
		if err != nil {
			t.Fatal(err)
		}
		var as AssessResponse
		if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
			System: *doc, Config: []int{3, 3, 4}, Goals: GoalsJSON{MaxUnavailability: 1e-2},
		}, &as); status != http.StatusOK {
			t.Fatalf("assess status = %d", status)
		}
		recs := []audit.Record{
			{Kind: audit.InstanceStarted, Time: 0, Workflow: "ep", Instance: 1},
			{Kind: audit.InstanceCompleted, Time: 1, Workflow: "ep", Instance: 1},
		}
		if status, _, _ := postEvents(t, ts.URL, as.Fingerprint, recs); status != http.StatusOK {
			t.Fatalf("events status = %d", status)
		}
		fps = append(fps, as.Fingerprint)
	}

	var dr DriftResponse
	if status := getJSON(t, ts.URL+"/v1/drift", &dr); status != http.StatusOK {
		t.Fatalf("drift status = %d", status)
	}
	if len(dr.Streams) != 2 {
		t.Fatalf("streams = %d, want 2 (bounded registry)", len(dr.Streams))
	}
	for _, st := range dr.Streams {
		if st.Fingerprint == fps[0] {
			t.Error("oldest stream survived past the registry bound")
		}
	}
}

// eventsSeeds is FuzzEventsBatchAtomic's seed corpus: the audit-line
// differential seeds, a simulated EP trail, and a body of {} lines one
// record past what a 64 KiB body may decode to (fuzz seeds are named by
// position: append, do not reorder).
func eventsSeeds(f *testing.F) []string {
	raw, err := os.ReadFile(filepath.Join("..", "audit", "testdata", "differential_seeds.txt"))
	if err != nil {
		f.Fatal(err)
	}
	var seeds []string
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("differential_seeds.txt:%d: %v", i+1, err)
		}
		seeds = append(seeds, seed)
	}
	return append(seeds,
		string(jsonLines(f, epTrail(f, 200), math.MaxInt)),
		strings.Repeat("{}\n", (64<<10)/minRecordBytes+1))
}

// FuzzEventsBatchAtomic posts a mutated JSON-lines body and then a fixed
// valid one to the same stream. Every reply must be well-formed JSON; a
// 200 must fold exactly the records the body holds and report them,
// and any other status must fold none. So a refused batch leaves nothing
// behind, and a recycled record buffer never carries one batch's
// records into the next.
func FuzzEventsBatchAtomic(f *testing.F) {
	for _, seed := range eventsSeeds(f) {
		f.Add([]byte(seed))
	}
	s := New(Options{Workers: 1, MaxBodyBytes: 64 << 10, Logger: testLogger()})
	h := s.Handler()
	serve := func(url string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		return rec
	}
	_, _, doc := ingestSystem(f)
	var as AssessResponse
	rec := serve("/v1/assess", []byte(mustJSON(f, AssessRequest{System: doc, Config: []int{2}, Goals: GoalsJSON{MaxUnavailability: 1e-2}})))
	if err := json.Unmarshal(rec.Body.Bytes(), &as); err != nil || rec.Code != http.StatusOK {
		f.Fatalf("assess: %d %s", rec.Code, rec.Body)
	}
	url := "/v1/events?fingerprint=" + as.Fingerprint
	valid := jsonLines(f, ingestRecords(3, 0), math.MaxInt)
	if rec := serve(url, valid); rec.Code != http.StatusOK {
		f.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
	st := s.streams.lookup(as.Fingerprint)

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, body := range [][]byte{body, valid} {
			before := st.est.Events()
			rec := serve(url, body)
			folded := st.est.Events() - before
			if rec.Code != http.StatusOK {
				var e ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("status %d body is not a typed error: %v\n%s", rec.Code, err, rec.Body)
				}
				if folded != 0 {
					t.Fatalf("status %d folded %d records", rec.Code, folded)
				}
				continue
			}
			var out EventsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 body is not an events reply: %v\n%s", err, rec.Body)
			}
			want, err := audit.ReadRecords(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("200 for a body the decoder refuses: %v", err)
			}
			if out.Records != len(want) || folded != uint64(len(want)) || out.TotalEvents != before+folded {
				t.Fatalf("body of %d records: reply says %d records, %d in total; %d folded onto %d",
					len(want), out.Records, out.TotalEvents, folded, before)
			}
		}
	})
}
