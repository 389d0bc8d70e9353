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
	s, ts := newTestServer(t, Options{Workers: 2, TenantBudget: 1, MaxBodyBytes: 256 << 10})
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
	status, sub := submitJob(t, ts.URL+"/v1/jobs/recommend", RecommendRequest{System: doc, Goals: goals})
	if status != http.StatusAccepted {
		t.Fatalf("job submit status = %d", status)
	}
	if st := pollJob(t, ts.URL+"/v1/jobs/"+sub.ID, func(st JobStatusResponse) bool { return jobState(st.State).terminal() }); st.State != string(jobDone) {
		t.Fatalf("job ended %q (%s), want done", st.State, st.Error)
	}
	release, err := s.admission.quotas.acquire("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := postJSONTenant(t, ts.URL+"/v1/assess", "alice", AssessRequest{System: doc, Config: []int{2}, Goals: goals}); status != http.StatusTooManyRequests {
		t.Fatalf("over-budget tenant status = %d, want 429", status)
	}
	release()
	big := `{"system": {"pad": "` + strings.Repeat("y", 300<<10) + `"}}`
	if status, _ := postRaw(t, ts.URL+"/v1/assess", big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", status)
	}
	// The job runner hands its admission token back after publishing the
	// result; wait for it so both reads see the same quiescent server.
	for deadline := time.Now().Add(10 * time.Second); s.admission.sem.InUse() != 0; time.Sleep(time.Millisecond) {
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
		"wfmsd_model_cache_entries":           st.ModelCache.Size,
		"wfmsd_model_cache_hits_total":        st.ModelCache.Hits,
		"wfmsd_model_cache_misses_total":      st.ModelCache.Misses,
		"wfmsd_model_cache_evictions_total":   st.ModelCache.Evictions,
		"wfmsd_clamped_stages_total":          st.ClampedStages,
		"wfmsd_events_ingested_total":         st.Ingest.Events,
		"wfmsd_event_batches_total":           st.Ingest.Batches,
		"wfmsd_drift_invalidations_total":     st.Ingest.Invalidations,
		"wfmsd_ingest_streams":                st.Ingest.Streams,
		"wfmsd_panics_total":                  st.Panics,
		"wfmsd_admission_in_use":              st.Admission.InUse,
		"wfmsd_admission_waiting":             st.Admission.Waiting,
		"wfmsd_batch_items_total":             st.Batch.Items,
		"wfmsd_batch_builds_total":            st.Batch.Builds,
		"wfmsd_jobs_resident":                 st.Jobs.Resident,
		`wfmsd_jobs_total{event="submitted"}`: st.Jobs.Submitted,
		`wfmsd_jobs_total{event="done"}`:      st.Jobs.Done,
		`wfmsd_jobs_total{event="failed"}`:    st.Jobs.Failed,
		`wfmsd_jobs_total{event="canceled"}`:  st.Jobs.Canceled,
		`wfmsd_jobs_total{event="expired"}`:   st.Jobs.Expired,
	}
	for code, n := range st.Errors {
		want[fmt.Sprintf("wfmsd_errors_total{code=%q}", code)] = n
	}
	for name, ts := range st.Tenants {
		want[fmt.Sprintf("wfmsd_tenant_requests_total{tenant=%q}", name)] = ts.Requests
		want[fmt.Sprintf("wfmsd_tenant_rejections_total{tenant=%q}", name)] = ts.Rejections
		want[fmt.Sprintf("wfmsd_tenant_in_use{tenant=%q}", name)] = ts.InUse
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
	if st.ModelCache.Hits == 0 || st.ModelCache.Misses == 0 || st.Ingest.Events == 0 || st.Batch.Items != 2 ||
		st.Jobs.Done != 1 || st.Tenants["alice"].Rejections != 1 || st.Errors["payload_too_large"] != 1 {
		t.Errorf("scripted run left stats %+v", st)
	}
	for name := range s.endpoints {
		if _, ok := series[fmt.Sprintf("wfmsd_request_duration_seconds_count{endpoint=%q}", name)]; !ok {
			t.Errorf("route %s has no latency series", name)
		}
	}
}
