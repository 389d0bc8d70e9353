package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/wfcommons"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
	"performa/internal/workload"
)

// perRequest serves one request through the handler (a POST of body, a
// GET when body is nil), then measures what serving it again allocates
// on average, GOMAXPROCS(1) as in testing.AllocsPerRun.
func perRequest(t *testing.T, h http.Handler, url string, body []byte) (allocs, size float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	method := http.MethodPost
	if body == nil {
		method = http.MethodGet
	}
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, url, rec.Code, rec.Body)
		}
	}
	serve()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// warmAssess is a server holding the paper system's model and the body
// of a what-if /v1/assess over it.
func warmAssess(t *testing.T) (*Server, []byte) {
	doc, _ := paperSystem(t)
	body, err := json.Marshal(AssessRequest{System: doc, Config: []int{2, 2, 3}, Goals: GoalsJSON{MaxUnavailability: 1e-5}})
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Logger: testLogger()}), body
}

// TestWarmAssessAllocationCeiling pins that a warm /v1/assess whose
// system is in the compact form json.Marshal writes finds its model by
// the digest of the posted bytes, without parsing them: ~70 allocations
// (16 KB) on the paper system, where parsing and fingerprinting the
// document took ~345 (38 KB). The same system posted indented misses the
// digest and takes that parse (~350), which must not grow.
func TestWarmAssessAllocationCeiling(t *testing.T) {
	s, body := warmAssess(t)
	if allocs, size := perRequest(t, s.Handler(), "/v1/assess", body); allocs > 150 {
		t.Errorf("a warm /v1/assess made %.0f allocations (%.0f B), want at most 150", allocs, size)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	if allocs, size := perRequest(t, s.Handler(), "/v1/assess", indented.Bytes()); allocs > 420 {
		t.Errorf("a warm /v1/assess posted indented made %.0f allocations (%.0f B), want at most 420", allocs, size)
	}
}

// TestColdAssessAllocationCeiling pins what a cold /v1/assess allocates:
// cycles-60, a corpus system whose charts nest subcharts, posted in the
// compact form json.Marshal writes to a server that has never seen it.
// The parser cuts every string from one copy of the span; IsCanonical
// certifies the span, so its digest is the fingerprint and the document
// is not copied and hashed again; each chart is validated once by
// FromDocument and once by spec.Build, over one index buffer: 278
// allocations, where a string each, a canonical copy, a second hash and
// validation with maps at every nesting level made 362.
func TestColdAssessAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	const ceiling = 285
	doc := corpusDocs(t)["cycles-60"]
	env, flows, err := wfjson.FromDocument(&doc)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := wfjson.ToDocument(env, flows)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]int, env.K())
	for i := range replicas {
		replicas[i] = wfcommons.DefaultReplicas
	}
	body, err := json.Marshal(AssessRequest{System: *canonical, Config: replicas, Goals: GoalsJSON{MaxUnavailability: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var mallocs, bytes uint64
	for range runs {
		h := New(Options{Logger: testLogger()}).Handler()
		req, rec := httptest.NewRequest(http.MethodPost, "/v1/assess", strings.NewReader(string(body))), httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%d %s", rec.Code, rec.Body)
		}
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	if allocs := mallocs / runs; allocs > ceiling {
		t.Errorf("a cold /v1/assess of cycles-60 made %d allocations (%d B), want at most %d", allocs, bytes/runs, ceiling)
	}
}

// TestPlanningAllocationCeiling pins what the plan-search requests
// allocate once their model is warm. A branch-and-bound capped one
// replica above the greedy answer reads every candidate's per-type terms
// from the evaluator's term table and keeps no per-search cache: ~500
// allocations for 110 candidates, where a memo of whole-candidate
// assessments keyed by strings made ~1,060. A sensitivity table's prose
// and reply are appended, not formatted and reflected: ~230, where fmt,
// a by-value sort and json.Marshal made ~700.
func TestPlanningAllocationCeiling(t *testing.T) {
	const bnbCeiling, sensitivityCeiling = 700, 300
	doc, _ := planSearchSystem(t)
	s := New(Options{Logger: testLogger()})
	goals := GoalsJSON{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}
	greedy, err := json.Marshal(RecommendRequest{System: doc, Goals: goals})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(greedy)))
	var plan RecommendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &plan); err != nil {
		t.Fatalf("%d %s: %v", rec.Code, rec.Body, err)
	}
	limit := make([]int, len(plan.Config))
	config := make([]string, len(plan.Config))
	for x, y := range plan.Config {
		limit[x], config[x] = y+1, strconv.Itoa(y)
	}
	bnb, err := json.Marshal(RecommendRequest{System: doc, Planner: "bnb", Goals: goals, Constraints: ConstraintsJSON{MaxReplicas: limit}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs, size := perRequest(t, s.Handler(), "/v1/recommend", bnb); allocs > bnbCeiling {
		t.Errorf("a warm branch-and-bound /v1/recommend made %.0f allocations (%.0f B), want at most %d", allocs, size, bnbCeiling)
	}
	url := "/v1/sensitivity?fingerprint=" + plan.Fingerprint + "&config=" + strings.Join(config, ",")
	if allocs, size := perRequest(t, s.Handler(), url, nil); allocs > sensitivityCeiling {
		t.Errorf("GET /v1/sensitivity made %.0f allocations (%.0f B), want at most %d", allocs, size, sensitivityCeiling)
	}
}

// eventsServer is a server holding the paper system's model, and the
// /v1/events URL of that system's ingestion stream.
func eventsServer(t *testing.T) (*Server, string) {
	s, body := warmAssess(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader(body)))
	var resp AssessResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return s, "/v1/events?fingerprint=" + resp.Fingerprint
}

// epTrail returns the first n records of an audit trail simulated from
// the paper system's EP workflow.
func epTrail(t testing.TB, n int) []audit.Record {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(5), env)
	if err != nil {
		t.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{2, 2, 3},
		Seed: 1, Horizon: 20 + float64(n)/100, Trail: trail,
	}); err != nil {
		t.Fatal(err)
	}
	recs := trail.Records()
	if len(recs) < n {
		t.Fatalf("simulated trail has %d records, want %d", len(recs), n)
	}
	return recs[:n]
}

// jsonLines encodes records the way a trail writer does, stopping
// before the line that would take the body past limit bytes.
func jsonLines(t testing.TB, recs []audit.Record, limit int) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		n := buf.Len()
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
		if buf.Len() > limit {
			buf.Truncate(n)
			break
		}
	}
	return buf.Bytes()
}

// TestEventBatchAllocationCeiling pins that a /v1/events batch decodes
// into pooled buffers: a 60-record batch allocates less than the 64 KB
// scan buffer it reads through, and a 2,000-record EP batch less than
// the 272 KB its records occupy (a fresh record slice made that 785 KB).
func TestEventBatchAllocationCeiling(t *testing.T) {
	s, url := eventsServer(t)
	env := workload.PaperEnvironment()
	var batch bytes.Buffer
	enc := json.NewEncoder(&batch)
	for i := range 60 {
		st := env.Type(i % env.K())
		if err := enc.Encode(audit.Record{Kind: audit.ServiceRequest, Time: float64(i), ServerType: st.Name, Service: st.MeanService}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs, size := perRequest(t, s.Handler(), url, batch.Bytes()); size >= 64<<10 {
		t.Errorf("a 60-record /v1/events batch allocated %.0f B (%.0f allocations), want less than one 64 KB scan buffer", size, allocs)
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	ep := jsonLines(t, epTrail(t, 2000), math.MaxInt)
	if allocs, size := perRequest(t, s.Handler(), url, ep); size >= 64<<10 {
		t.Errorf("a 2,000-record /v1/events batch allocated %.0f B (%.0f allocations), want less than 64 KB", size, allocs)
	}
}

// TestEventBatchRecordBound pins what one body may decode to. A line of
// "{}" is three bytes but a whole record, so a body under the byte limit
// could make millions of them, allocated before admission is asked: the
// decoder stops past MaxBodyBytes/32 records and answers 413, having
// allocated a small multiple of the body. A real trail up to the byte
// limit is still one batch.
func TestEventBatchRecordBound(t *testing.T) {
	s, url := eventsServer(t)
	limit := int(s.opts.MaxBodyBytes)
	empty := bytes.Repeat([]byte("{}\n"), limit/3)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(empty)))
	runtime.ReadMemStats(&after)
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("%d %s: %v", rec.Code, rec.Body, err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || e.Code != string(wfmserr.CodePayloadTooLarge) {
		t.Errorf("%d bytes of {} lines: %d %q, want 413 %s", len(empty), rec.Code, e.Code, wfmserr.CodePayloadTooLarge)
	}
	if !strings.Contains(e.Error, "split it into smaller batches") {
		t.Errorf("error %q does not say to split the batch", e.Error)
	}
	if size := after.TotalAlloc - before.TotalAlloc; size > 12*uint64(len(empty)) {
		t.Errorf("refusing %d bytes of {} lines allocated %d MB, want at most 12 times the body", len(empty), size>>20)
	}

	trail := jsonLines(t, epTrail(t, limit/100), limit)
	lines := bytes.Count(trail, []byte("\n"))
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(trail)))
	var ok EventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("a %d-byte EP trail: %d %s", len(trail), rec.Code, rec.Body)
	}
	if ok.Records != lines {
		t.Errorf("a %d-byte EP trail of %d records was accepted as %d", len(trail), lines, ok.Records)
	}
}

// TestEventBatchBlankLinesBound pins what a body of blank lines costs: a
// newline is one byte but no record, so the decoder must not reserve a
// record's slot for each before it finds the lines empty. A body of them,
// from 256 KiB (over the size a body is split at) to the byte limit,
// answers 400 having allocated a small multiple of the body.
func TestEventBatchBlankLinesBound(t *testing.T) {
	s, url := eventsServer(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []int{256 << 10, int(s.opts.MaxBodyBytes) - 1} {
		blank := bytes.Repeat([]byte("\n"), n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(blank)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "empty event batch") {
			t.Errorf("%d blank lines: %d %s, want 400 empty event batch", n, rec.Code, rec.Body)
		}
		if size := after.TotalAlloc - before.TotalAlloc; size > 12*uint64(n) {
			t.Errorf("refusing %d blank lines allocated %d KB, want at most 12 times the body", n, size>>10)
		}
	}
}
