package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"performa/internal/audit"
)

// perRequest serves one request through the handler, then measures what
// serving it again allocates on average, GOMAXPROCS(1) as in
// testing.AllocsPerRun.
func perRequest(t *testing.T, h http.Handler, url string, body []byte) (allocs, size float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", url, rec.Code, rec.Body)
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

// TestWarmAssessAllocationCeiling pins that a warm /v1/assess finds its
// model by the fingerprint of the posted document, without building the
// spec objects FromDocument validates it into or the canonical document
// ToDocument makes of them: that route took ~510 allocations (52 KB) on
// the paper system and this one takes ~345 (38 KB).
func TestWarmAssessAllocationCeiling(t *testing.T) {
	s, body := warmAssess(t)
	if allocs, size := perRequest(t, s.Handler(), "/v1/assess", body); allocs > 420 {
		t.Errorf("a warm /v1/assess made %.0f allocations (%.0f B), want at most 420", allocs, size)
	}
}

// TestEventBatchAllocationCeiling pins that a 60-record /v1/events batch
// reads its body into a pooled scan buffer: a fresh 64 KB buffer per
// batch was most of the 92 KB one allocated; it now allocates ~27 KB.
func TestEventBatchAllocationCeiling(t *testing.T) {
	s, body := warmAssess(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader(body)))
	var resp AssessResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	env := s.models.byFingerprint(resp.Fingerprint).env
	var batch bytes.Buffer
	enc := json.NewEncoder(&batch)
	for i := range 60 {
		st := env.Type(i % env.K())
		if err := enc.Encode(audit.Record{Kind: audit.ServiceRequest, Time: float64(i), ServerType: st.Name, Service: st.MeanService}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs, size := perRequest(t, s.Handler(), "/v1/events?fingerprint="+resp.Fingerprint, batch.Bytes()); size >= 64<<10 {
		t.Errorf("a 60-record /v1/events batch allocated %.0f B (%.0f allocations), want less than one 64 KB scan buffer", size, allocs)
	}
}
