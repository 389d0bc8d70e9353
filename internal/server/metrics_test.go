package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfjson"
)

// TestHistogramQuantileBasics pins the conservative upper-bound estimate.
func TestHistogramQuantileBasics(t *testing.T) {
	h := newHistogram()
	if !math.IsNaN(h.quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for i := 0; i < 90; i++ {
		h.observe(2 * time.Millisecond) // bucket ub 0.0025
	}
	for i := 0; i < 10; i++ {
		h.observe(40 * time.Millisecond) // bucket ub 0.05
	}
	if got := h.quantile(0.5); got != 0.0025 {
		t.Errorf("p50 = %v, want 0.0025", got)
	}
	if got := h.quantile(0.95); got != 0.05 {
		t.Errorf("p95 = %v, want 0.05", got)
	}
	cum, total, _ := h.snapshot()
	if total != 100 || cum[len(cum)-1] != 100 {
		t.Errorf("total = %d, cum tail = %d, want 100", total, cum[len(cum)-1])
	}
}

// TestHistogramQuantileConcurrent is the regression test for the torn
// read between the bucket counts and the separate total counter: the
// old code loaded total after the bucket sweep, so a concurrent observe
// could make rank exceed the cumulative mass and quantile return +Inf
// even though every recorded latency sat in the first bucket. Run with
// -race; the spurious +Inf reproduced within a few thousand iterations.
func TestHistogramQuantileConcurrent(t *testing.T) {
	h := newHistogram()
	h.observe(time.Microsecond) // never empty, so NaN is not a legal answer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.observe(time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if got := h.quantile(q); math.IsInf(got, 1) || math.IsNaN(got) {
				close(stop)
				wg.Wait()
				t.Fatalf("quantile(%v) = %v under concurrent observe; every observation is 1µs", q, got)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestStatsAndMetricsAgree pins /v1/stats and /metrics as two
// renderings of one snapshot: after a scripted run that moves every
// counter, each /v1/stats counter equals its /metrics series, and every
// registered route has a latency series.
func TestStatsAndMetricsAgree(t *testing.T) {
	_, _, doc := ingestSystem(t)
	s, ts := newTestServer(t, Options{Workers: 2, MaxBodyBytes: 256 << 10})
	goals := GoalsJSON{MaxUnavailability: 1e-2}

	var as AssessResponse
	for i := 0; i < 2; i++ { // one miss, one hit
		if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{System: doc, Config: []int{2}, Goals: goals}, &as); status != http.StatusOK {
			t.Fatalf("assess status = %d", status)
		}
	}
	batch := AssessBatchRequest{Items: []AssessBatchItem{
		{System: doc, Config: []int{1}, Goals: goals},
		{System: doc, Config: []int{3}, Goals: goals},
	}}
	if status := postJSON(t, ts.URL+"/v1/assess-batch", batch, nil); status != http.StatusOK {
		t.Fatalf("assess-batch status = %d", status)
	}
	if status, _, e := postEvents(t, ts.URL, as.Fingerprint, ingestRecords(120, 0)); status != http.StatusOK {
		t.Fatalf("events status = %d (%s)", status, e.Error)
	}
	if status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{System: doc, Goals: goals}, nil); status != http.StatusOK {
		t.Fatalf("recommend status = %d", status)
	}
	if status, e := postRaw(t, ts.URL+"/v1/recommend", mustJSON(t, RecommendRequest{System: doc, Goals: goals, TimeoutMillis: -1})); status != http.StatusUnprocessableEntity {
		t.Fatalf("negative timeout status = %d (%s), want 422", status, e.Code)
	}
	if status, _, _ := postEvents(t, ts.URL, "feedcafe", ingestRecords(2, 0)); status != http.StatusNotFound {
		t.Fatalf("unknown fingerprint status = %d, want 404", status)
	}
	big := `{"system": {"pad": "` + strings.Repeat("y", 300<<10) + `"}}`
	if status, _ := postRaw(t, ts.URL+"/v1/assess", big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", status)
	}
	// A batch item's panic is contained and counted.
	s.forEachItem(1, 1, func(int) { panic("boom") }, func(int, error) {})
	// A handler hands its admission token back just after its reply is
	// written; wait for the last one so both reads see the same quiescent
	// server.
	for deadline := time.Now().Add(10 * time.Second); s.sem.InUse() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("admission tokens still held after the run")
		}
	}

	var st StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
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
	series := make(map[string]string)
	typed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = strings.Fields(name)[0]
			if typed[name] {
				t.Errorf("family %s has two TYPE lines", name)
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		series[line[:at]] = line[at+1:]
	}
	want := map[string]any{
		"wfmsd_model_cache_entries":         st.ModelCache.Size,
		"wfmsd_model_cache_hits_total":      st.ModelCache.Hits,
		"wfmsd_model_cache_misses_total":    st.ModelCache.Misses,
		"wfmsd_model_cache_evictions_total": st.ModelCache.Evictions,
		"wfmsd_clamped_stages_total":        st.ClampedStages,
		"wfmsd_events_ingested_total":       st.Ingest.Events,
		"wfmsd_event_batches_total":         st.Ingest.Batches,
		"wfmsd_drift_invalidations_total":   st.Ingest.Invalidations,
		"wfmsd_ingest_streams":              st.Ingest.Streams,
		"wfmsd_panics_total":                st.Panics,
		"wfmsd_admission_in_use":            st.Admission.InUse,
		"wfmsd_admission_waiting":           st.Admission.Waiting,
		"wfmsd_batch_items_total":           st.Batch.Items,
		"wfmsd_batch_builds_total":          st.Batch.Builds,
	}
	for code, n := range st.Errors {
		want[fmt.Sprintf("wfmsd_errors_total{code=%q}", code)] = n
	}
	// The two reads are themselves requests: /v1/stats counted neither
	// itself nor /metrics, so those two routes are left out.
	for name, ep := range st.Endpoints {
		if name == "/v1/stats" || name == "/metrics" {
			continue
		}
		for code, n := range ep.ByStatus {
			want[fmt.Sprintf("wfmsd_requests_total{endpoint=%q,code=\"%d\"}", name, code)] = n
		}
		want[fmt.Sprintf("wfmsd_inflight_requests{endpoint=%q}", name)] = ep.Inflight
		want[fmt.Sprintf("wfmsd_request_duration_seconds_count{endpoint=%q}", name)] = ep.Requests
	}
	for key, v := range want {
		if got, ok := series[key]; !ok {
			t.Errorf("/metrics has no series %s", key)
		} else if got != fmt.Sprint(v) {
			t.Errorf("%s = %s on /metrics, %v on /v1/stats", key, got, v)
		}
	}
	// The run moved what it scripted.
	if st.ModelCache.Hits == 0 || st.ModelCache.Misses == 0 || st.Ingest.Events == 0 || st.Batch.Items != 2 || st.Panics != 1 ||
		st.Errors["invalid_request"] != 1 || st.Errors["not_found"] != 1 || st.Errors["payload_too_large"] != 1 {
		t.Errorf("scripted run left stats %+v", st)
	}
	for name := range s.endpoints {
		if _, ok := series[fmt.Sprintf("wfmsd_request_duration_seconds_count{endpoint=%q}", name)]; !ok {
			t.Errorf("route %s has no latency series", name)
		}
	}
}

// TestStatsClampedStages: building a system whose subworkflow collapse
// clamps at the Erlang stage cap must surface in /v1/stats (the
// near-deterministic-subworkflow diagnostic from the float→int clamp
// bugfix).
func TestStatsClampedStages(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	env, err := spec.NewEnvironment(spec.ServerType{
		Name:                "srv",
		MeanService:         0.1,
		ServiceSecondMoment: 0.02,
		FailureRate:         1.0 / 1000,
		RepairRate:          1.0 / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two Erlang-192 unit activities in sequence: subworkflow variance
	// 2/192 → moment-matched k = 384 > the 256-stage cap.
	sub := &statechart.Chart{
		Name: "sub",
		States: map[string]*statechart.State{
			"init": {Name: "init"},
			"s1":   {Name: "s1", Activity: "a1"},
			"s2":   {Name: "s2", Activity: "a2"},
			"fin":  {Name: "fin"},
		},
		Initial: "init",
		Final:   "fin",
		Transitions: []*statechart.Transition{
			{From: "init", To: "s1", Prob: 1},
			{From: "s1", To: "s2", Prob: 1},
			{From: "s2", To: "fin", Prob: 1},
		},
	}
	chart := &statechart.Chart{
		Name: "parent",
		States: map[string]*statechart.State{
			"init": {Name: "init"},
			"nest": {Name: "nest", Subcharts: []*statechart.Chart{sub}},
			"fin":  {Name: "fin"},
		},
		Initial: "init",
		Final:   "fin",
		Transitions: []*statechart.Transition{
			{From: "init", To: "nest", Prob: 1},
			{From: "nest", To: "fin", Prob: 1},
		},
	}
	w := &spec.Workflow{
		Name:  "parent",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"a1": {Name: "a1", MeanDuration: 1, DurationStages: 192, Load: map[string]float64{"srv": 0.2}},
			"a2": {Name: "a2", MeanDuration: 1, DurationStages: 192, Load: map[string]float64{"srv": 0.2}},
		},
		ArrivalRate: 0.01,
	}
	doc, err := wfjson.ToDocument(env, []*spec.Workflow{w})
	if err != nil {
		t.Fatal(err)
	}
	req := AssessRequest{System: *doc, Config: []int{1}, Goals: GoalsJSON{MaxWaiting: 500, MaxUnavailability: 0.5}}
	if code := postJSON(t, ts.URL+"/v1/assess", req, nil); code != http.StatusOK {
		t.Fatalf("assess status %d", code)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.ClampedStages < 1 {
		t.Fatalf("clamped_stages = %d, want >= 1", stats.ClampedStages)
	}
}
