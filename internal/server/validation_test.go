package server

// Regression coverage for the two request-validation bugfixes shipped
// with the batch endpoints, and for the retired job API and tenant field:
//
//  1. An over-limit request body used to surface as a generic 400
//     ("parsing request: http: request body too large"); it must be a
//     413 with the typed payload_too_large code, on the JSON endpoints
//     and the JSONL /v1/events path alike.
//  2. A negative timeout_ms was silently ignored (the `> 0` check fell
//     through to the server default, handing a fail-fast client a
//     60-second budget); it must be rejected with a typed 422.
//  3. The async job routes are gone, and "tenant" is no request member:
//     a body carrying it gets the strict decoder's unknown-field 400.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"performa/internal/wfmserr"
)

// TestOversizedBodyRejected413 posts bodies beyond MaxBodyBytes and
// requires 413/payload_too_large everywhere a body is read.
func TestOversizedBodyRejected413(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 1024})

	big := mustJSON(t, AssessRequest{
		System: doc, Config: []int{2, 2, 2},
		Goals: GoalsJSON{MaxUnavailability: 1e-5},
	})
	if len(big) <= 1024 {
		t.Fatalf("test body is only %d bytes; raise the payload or lower the cap", len(big))
	}
	for _, path := range []string{"/v1/assess", "/v1/recommend", "/v1/assess-batch", "/v1/calibrate"} {
		status, e := postRaw(t, ts.URL+path, big)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, status)
		}
		if e.Code != string(wfmserr.CodePayloadTooLarge) {
			t.Errorf("%s: code = %q, want %q", path, e.Code, wfmserr.CodePayloadTooLarge)
		}
	}

	// The JSONL ingestion path reads through the same cap.
	events := strings.Repeat("{}\n", 1024)
	status, e := postRaw(t, ts.URL+"/v1/events?fingerprint=deadbeef", events)
	if status != http.StatusRequestEntityTooLarge || e.Code != string(wfmserr.CodePayloadTooLarge) {
		t.Errorf("/v1/events: status/code = %d/%q, want 413/%s", status, e.Code, wfmserr.CodePayloadTooLarge)
	}

	// The typed code reaches the operator-facing counters.
	var stats StatsResponse
	if st := getJSON(t, ts.URL+"/v1/stats", &stats); st != http.StatusOK {
		t.Fatalf("stats status = %d", st)
	}
	if stats.Errors[string(wfmserr.CodePayloadTooLarge)] < 5 {
		t.Errorf("errors[payload_too_large] = %d, want >= 5: %v",
			stats.Errors[string(wfmserr.CodePayloadTooLarge)], stats.Errors)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `wfmsd_errors_total{code="payload_too_large"}`) {
		t.Error("metrics missing the payload_too_large error series")
	}

	// An in-budget request on the same server still succeeds: the cap
	// applies per request, and 1 KiB still fits a small valid body.
	status, _ = postRaw(t, ts.URL+"/v1/events?fingerprint=deadbeef", "{}\n")
	if status == http.StatusRequestEntityTooLarge {
		t.Errorf("small body rejected as oversized (status %d)", status)
	}
}

// TestNegativeTimeoutRejected posts timeout_ms: -1 to every endpoint
// that honors the field and requires a typed 422 instead of the silent
// fallthrough to the server default.
func TestNegativeTimeoutRejected(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 1})

	goals := GoalsJSON{MaxUnavailability: 1e-5}
	cases := []struct {
		path string
		body string
	}{
		{"/v1/recommend", mustJSON(t, RecommendRequest{System: doc, Goals: goals, TimeoutMillis: -1})},
		{"/v1/assess-batch", mustJSON(t, AssessBatchRequest{
			Items:         []AssessBatchItem{{System: doc, Config: []int{2, 2, 2}, Goals: goals}},
			TimeoutMillis: -1,
		})},
		{"/v1/recommend-batch", mustJSON(t, RecommendBatchRequest{
			Items:         []RecommendBatchItem{{System: doc, Goals: goals}},
			TimeoutMillis: -1,
		})},
	}
	for _, tc := range cases {
		status, e := postRaw(t, ts.URL+tc.path, tc.body)
		if status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422", tc.path, status)
		}
		if e.Code != string(wfmserr.CodeInvalidRequest) {
			t.Errorf("%s: code = %q, want %q", tc.path, e.Code, wfmserr.CodeInvalidRequest)
		}
	}

	// Zero stays valid: it means "inherit the server default".
	status, e := postRaw(t, ts.URL+"/v1/recommend", mustJSON(t, RecommendRequest{
		System: doc, Goals: GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
	}))
	if status != http.StatusOK {
		t.Errorf("timeout_ms 0: status = %d (%+v), want 200", status, e)
	}
}

// TestModelSolverFieldColdAndWarm pins the removed model.solver knob:
// it used to change no answer on a cold system and 422 on one resident
// under another value ("shared evaluator options … differ": the cache
// key omitted it, so the default request below failed after a "dense").
// It is now an unknown field — the identical 400 cold or warm — and a
// request without it answers byte-identically cold and warm under both
// repair disciplines.
func TestModelSolverFieldColdAndWarm(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	post := func(t *testing.T, model string) (int, []byte) {
		t.Helper()
		body := `{"system": ` + mustJSON(t, doc) + `, "config": [2,2,3], "goals": {"max_unavailability": 1e-5}, "model": ` + model + `}`
		resp, err := http.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	t.Run("solver field", func(t *testing.T) {
		coldStatus, cold := post(t, `{"solver": "dense"}`)
		warmStatus, warm := post(t, `{"solver": "dense"}`)
		if coldStatus != http.StatusBadRequest || warmStatus != http.StatusBadRequest {
			t.Fatalf("status %d then %d, want 400 both times\n%s\n%s", coldStatus, warmStatus, cold, warm)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("first and second rejection differ:\n%s\n%s", cold, warm)
		}
		var e ErrorResponse
		if err := json.Unmarshal(cold, &e); err != nil || e.Code != "bad_request" || !strings.Contains(e.Error, `unknown field "solver"`) {
			t.Fatalf("rejection body %s (decode err %v), want bad_request naming the unknown field", cold, err)
		}
	})
	for _, model := range []string{`{}`, `{"discipline": "single-crew"}`} {
		t.Run("no solver field "+model, func(t *testing.T) {
			var cold, warm struct {
				Assessment json.RawMessage `json:"assessment"`
				CacheWarm  bool            `json:"cache_warm"`
			}
			for i, out := range []any{&cold, &warm} {
				status, raw := post(t, model)
				if status != http.StatusOK {
					t.Fatalf("post %d: status %d\n%s", i, status, raw)
				}
				if err := json.Unmarshal(raw, out); err != nil {
					t.Fatal(err)
				}
			}
			if cold.CacheWarm || !warm.CacheWarm {
				t.Fatalf("cache_warm %v then %v, want false then true", cold.CacheWarm, warm.CacheWarm)
			}
			if !bytes.Equal(cold.Assessment, warm.Assessment) {
				t.Fatalf("cold and warm assessments differ:\n%s\n%s", cold.Assessment, warm.Assessment)
			}
		})
	}
}

// TestRetiredJobsAndTenant pins the retired surface: the job routes are
// gone, and a "tenant" member is an unknown field, refused identically
// by the split route (after "system") and the whole-body route.
func TestRetiredJobsAndTenant(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, req := range []struct{ method, path string }{
		{http.MethodPost, "jobs/recommend"},
		{http.MethodGet, "jobs/job-1"},
		{http.MethodDelete, "jobs/job-1"},
	} {
		r, err := http.NewRequest(req.method, ts.URL+"/v1/"+req.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}

	valid := crashSeeds(t)[0]
	split, whole := splitAndWhole()
	for _, body := range []string{
		strings.Replace(valid, `,"config"`, `,"tenant":"alice","config"`, 1),
		strings.Replace(valid, `{"system":`, `{"tenant":"alice","system":`, 1),
	} {
		status, reply := postOn(split, "/v1/assess", body)
		if wholeStatus, wholeReply := postOn(whole, "/v1/assess", body); wholeStatus != status || wholeReply != reply {
			t.Errorf("split and whole routes differ: %d %s vs %d %s", status, reply, wholeStatus, wholeReply)
		}
		var e ErrorResponse
		if err := json.Unmarshal([]byte(reply), &e); err != nil || status != http.StatusBadRequest ||
			e.Code != "bad_request" || !strings.Contains(e.Error, `unknown field "tenant"`) {
			t.Errorf("tenant member: %d %s, want 400 bad_request naming the unknown field", status, reply)
		}
	}
}

// TestTurnaroundValidation: every request that carries a model refuses
// model.turnaround as an unknown field, whatever its value, the old
// default "collapse" included, identically on the split route, the
// digest route over a resident model, and the whole-body route.
func TestTurnaroundValidation(t *testing.T) {
	valid := crashSeeds(t)[0]
	split, whole := splitAndWhole()
	warmSplit, warmWhole, _ := warmSplitAndWhole(t)
	doc := valid[len(`{"system":`):strings.Index(valid, `,"config"`)]
	for _, value := range []string{"net", "collapse", ""} {
		model := `"model":{"turnaround":"` + value + `"}`
		item := `{"system":` + doc + `,"config":[2,2,2],"goals":{}`
		for _, c := range []struct{ path, body string }{
			{"/v1/assess", strings.Replace(valid, `,"config"`, `,`+model+`,"config"`, 1)},
			{"/v1/recommend", `{"system":` + doc + `,"goals":{},` + model + `}`},
			{"/v1/assess-batch", `{"items":[` + item + `}],` + model + `}`},
			{"/v1/assess-batch", `{"items":[` + item + `,` + model + `}]}`},
			{"/v1/deployments", item + `,` + model + `}`},
		} {
			for _, pair := range [][2]http.Handler{{split, whole}, {warmSplit, warmWhole}} {
				status, reply := postOn(pair[0], c.path, c.body)
				if wholeStatus, wholeReply := postOn(pair[1], c.path, c.body); wholeStatus != status || wholeReply != reply {
					t.Errorf("%s %s: split and whole routes differ: %d %s vs %d %s", c.path, model, status, reply, wholeStatus, wholeReply)
				}
				var e ErrorResponse
				if err := json.Unmarshal([]byte(reply), &e); err != nil || status != http.StatusBadRequest ||
					e.Code != "bad_request" || !strings.Contains(e.Error, `unknown field "turnaround"`) {
					t.Errorf("%s %s: %d %s, want 400 bad_request naming the unknown field", c.path, model, status, reply)
				}
			}
		}
	}
}
