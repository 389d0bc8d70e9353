package server

// Crash-safety coverage for the advisory service: adversarial inputs —
// oversized state spaces, degenerate failure/repair rates, deadline-
// expired solves, malformed documents — must cost one typed 4xx/5xx
// response each, never the process. The fuzz target at the bottom
// drives mutated wfjson through the full /v1/assess handler.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
	"performa/internal/workload"
)

// postRaw posts a raw body and returns the status plus the decoded
// error body (zero-valued on 200s).
func postRaw(t testing.TB, url, body string) (int, ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("error body is not well-formed JSON (status %d): %v\n%s", resp.StatusCode, err, raw)
		}
		if e.Error == "" {
			t.Errorf("status %d body missing the error field: %s", resp.StatusCode, raw)
		}
	}
	return resp.StatusCode, e
}

// degenerateDoc returns the paper system with one server type driven to
// a numerically degenerate regime: MTTF 1e-300 yields a finite but
// astronomical failure rate (1e300) that overflows the single-crew
// marginal weights. wfjson admits it (every field is finite); the
// availability model must reject it with a typed error, not a panic.
func degenerateDoc(t testing.TB) wfjson.Document {
	t.Helper()
	doc, _ := paperSystem(t)
	doc.Environment.Types[0].MTTF = 1e-300
	doc.Environment.Types[0].MTTR = 1
	return doc
}

// TestAssessOversizedStateSpace is the regression for the crash report:
// a replication vector whose state space cannot be represented must be
// refused up front with 422/state_space_too_large — and the very next
// request over the same server must succeed, bit-identical to the
// direct planner.
func TestAssessOversizedStateSpace(t *testing.T) {
	doc, a := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	huge := mustJSON(t, AssessRequest{
		System: doc,
		Config: []int{1 << 30, 1 << 30, 1 << 30},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
	})
	status, e := postRaw(t, ts.URL+"/v1/assess", huge)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("oversized config status = %d, want 422 (%+v)", status, e)
	}
	if e.Code != string(wfmserr.CodeStateSpaceTooLarge) {
		t.Errorf("error code = %q, want %q", e.Code, wfmserr.CodeStateSpaceTooLarge)
	}

	// The rejection must not have poisoned the server: the follow-up
	// valid request matches the direct assessment exactly.
	goals := config.Goals{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	want, err := config.Assess(a, perf.Config{Replicas: []int{3, 3, 4}}, goals, directOptions())
	if err != nil {
		t.Fatal(err)
	}
	var resp AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc,
		Config: []int{3, 3, 4},
		Goals:  GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
	}, &resp); status != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200", status)
	}
	assertAssessmentMatches(t, "post-rejection assess", resp.Assessment, want)

	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if stats.Panics != 0 {
		t.Errorf("server recovered %d panics; the oversized config must be refused before any panic", stats.Panics)
	}
	if stats.Errors[string(wfmserr.CodeStateSpaceTooLarge)] == 0 {
		t.Errorf("error counters missing %s: %v", wfmserr.CodeStateSpaceTooLarge, stats.Errors)
	}
}

// TestAssessLargeHarmlessConfig: twelve replicas of each of the seven
// extended-environment types span 13^7 > 2^23 joint states, which the
// former product-support budget refused as state_space_too_large; the
// answer is 91 M/G/1 formulas and must come back 200, equal to the
// direct assessment.
func TestAssessLargeHarmlessConfig(t *testing.T) {
	env := workload.ExtendedEnvironment()
	flow := workload.EPDistributed(5)
	doc, err := wfjson.ToDocument(env, []*spec.Workflow{flow})
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build(flow, env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		t.Fatal(err)
	}
	replicas := []int{12, 12, 12, 12, 12, 12, 12}
	goals := config.Goals{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	want, err := config.Assess(a, perf.Config{Replicas: replicas}, goals, directOptions())
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 2})
	var resp AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: *doc,
		Config: replicas,
		Goals:  GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
	}, &resp); status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	assertAssessmentMatches(t, "large config", resp.Assessment, want)
}

// TestAssessDegenerateRates pins the former linalg.Normalize panic
// route: extreme failure/repair rates that overflow the single-crew
// marginal must come back as a typed invalid-model error.
func TestAssessDegenerateRates(t *testing.T) {
	doc := degenerateDoc(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	body := mustJSON(t, AssessRequest{
		System: doc,
		Config: []int{3, 3, 4},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
		Model:  ModelJSON{Discipline: "single-crew"},
	})
	status, e := postRaw(t, ts.URL+"/v1/assess", body)
	if status != http.StatusUnprocessableEntity && status != http.StatusBadRequest {
		t.Fatalf("degenerate rates status = %d, want 4xx (%+v)", status, e)
	}
	if e.Code != string(wfmserr.CodeInvalidModel) {
		t.Errorf("error code = %q, want %q (error: %s)", e.Code, wfmserr.CodeInvalidModel, e.Error)
	}

	var stats StatsResponse
	if st := getJSON(t, ts.URL+"/v1/stats", &stats); st != http.StatusOK {
		t.Fatalf("stats status = %d", st)
	}
	if stats.Panics != 0 {
		t.Errorf("degenerate rates caused %d recovered panics; want a typed rejection", stats.Panics)
	}

	// The same server still answers valid requests.
	valid, _ := paperSystem(t)
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: valid,
		Config: []int{2, 2, 2},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
	}, nil); status != http.StatusOK {
		t.Fatalf("follow-up valid assess status = %d", status)
	}
}

// TestAdversarialBarrage is the acceptance scenario: one server absorbs
// well over 100 adversarial requests — oversized state spaces,
// degenerate charts, deadline-expired solves, malformed JSON — from
// concurrent clients without a single process death or recovered panic,
// mapping each to its documented status, and still answers a valid
// request bit-identically to the direct planner afterwards.
func TestAdversarialBarrage(t *testing.T) {
	doc, a := paperSystem(t)
	degen := degenerateDoc(t)
	_, ts := newTestServer(t, Options{Workers: 4})

	// Warm the model entry so deadline-expired requests exercise the
	// search path, not the model build.
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc,
		Config: []int{2, 2, 2},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
	}, nil); status != http.StatusOK {
		t.Fatalf("warmup status = %d", status)
	}

	kinds := []struct {
		name string
		path string
		body string
		want map[int]bool // allowed statuses
	}{
		{
			"oversized state space", "/v1/assess",
			mustJSON(t, AssessRequest{
				System: doc, Config: []int{1 << 30, 1 << 30, 1 << 30},
				Goals: GoalsJSON{MaxUnavailability: 1e-5},
			}),
			map[int]bool{http.StatusUnprocessableEntity: true},
		},
		{
			"overflowing state space", "/v1/assess",
			mustJSON(t, AssessRequest{
				System: doc, Config: []int{1 << 62, 1 << 62, 1 << 62},
				Goals: GoalsJSON{MaxUnavailability: 1e-5},
			}),
			map[int]bool{http.StatusUnprocessableEntity: true},
		},
		{
			"negative replicas", "/v1/assess",
			mustJSON(t, AssessRequest{
				System: doc, Config: []int{-1, 2, 2},
				Goals: GoalsJSON{MaxUnavailability: 1e-5},
			}),
			map[int]bool{http.StatusUnprocessableEntity: true},
		},
		{
			"config arity", "/v1/assess",
			mustJSON(t, AssessRequest{
				System: doc, Config: []int{2},
				Goals: GoalsJSON{MaxUnavailability: 1e-5},
			}),
			map[int]bool{http.StatusUnprocessableEntity: true},
		},
		{
			"malformed JSON", "/v1/assess", `{"system": {`,
			map[int]bool{http.StatusBadRequest: true},
		},
		{
			"unknown planner", "/v1/recommend",
			mustJSON(t, RecommendRequest{
				System: doc, Planner: "psychic",
				Goals: GoalsJSON{MaxUnavailability: 1e-5},
			}),
			map[int]bool{http.StatusBadRequest: true},
		},
		{
			"degenerate chart rates", "/v1/assess",
			mustJSON(t, AssessRequest{
				System: degen, Config: []int{3, 3, 4},
				Goals: GoalsJSON{MaxUnavailability: 1e-5},
				Model: ModelJSON{Discipline: "single-crew"},
			}),
			map[int]bool{http.StatusUnprocessableEntity: true, http.StatusBadRequest: true},
		},
		{
			"deadline-expired solve", "/v1/recommend",
			mustJSON(t, RecommendRequest{
				System: doc, Planner: "anneal",
				Goals:         GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
				Annealing:     AnnealingJSON{Seed: 7, Iterations: 100_000_000},
				TimeoutMillis: 20,
			}),
			map[int]bool{http.StatusGatewayTimeout: true},
		},
	}

	const total = 112 // 14 rounds over the 8 adversarial kinds
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < total; i += clients {
				k := kinds[i%len(kinds)]
				status, e := postRaw(t, ts.URL+k.path, k.body)
				if !k.want[status] {
					errs <- fmt.Errorf("request %d (%s): status %d (code %q), want one of %v",
						i, k.name, status, e.Code, k.want)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Zero process deaths is implied by reaching this line; zero
	// recovered panics means every failure took a typed route.
	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if stats.Panics != 0 {
		t.Errorf("barrage caused %d recovered panics; every adversarial input must take a typed error route", stats.Panics)
	}
	for _, code := range []string{
		string(wfmserr.CodeStateSpaceTooLarge),
		"bad_request",
		"deadline_exceeded",
	} {
		if stats.Errors[code] == 0 {
			t.Errorf("error counters missing %q after the barrage: %v", code, stats.Errors)
		}
	}

	// The survivor still answers exactly like the direct planner.
	goals := config.Goals{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	want, err := config.Assess(a, perf.Config{Replicas: []int{3, 3, 4}}, goals, directOptions())
	if err != nil {
		t.Fatal(err)
	}
	var resp AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc,
		Config: []int{3, 3, 4},
		Goals:  GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
	}, &resp); status != http.StatusOK {
		t.Fatalf("post-barrage assess status = %d", status)
	}
	assertAssessmentMatches(t, "post-barrage assess", resp.Assessment, want)
}

// crashSeeds is FuzzAssessCrashSafety's seed corpus (the floor names its
// entries by position: append, do not reorder).
func crashSeeds(t testing.TB) []string {
	t.Helper()
	doc, _ := paperSystem(t)
	degen := degenerateDoc(t)
	valid, err := json.Marshal(AssessRequest{
		System: doc,
		Config: []int{2, 2, 2},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
	})
	if err != nil {
		t.Fatal(err)
	}
	degenerate, err := json.Marshal(AssessRequest{
		System: degen,
		Config: []int{3, 3, 4},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
		Model:  ModelJSON{Discipline: "single-crew"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		string(valid),
		string(degenerate),
		`{`,
		`{"system":{"environment":{"types":[]},"workflows":[]},"config":[],"goals":{}}`,
		strings.Replace(string(valid), `"config":[2,2,2]`, `"config":[1073741824,1073741824,1073741824]`, 1),
		strings.Replace(string(valid), `"config":[2,2,2]`, `"config":[-1,0,2]`, 1),
		strings.Replace(string(valid), `"mean_service":`, `"mean_service":-`, 1),
		strings.Replace(string(valid), `"prob":1`, `"prob":1e308`, 1),
	}
}

// FuzzAssessCrashSafety feeds mutated request bodies through the full
// /v1/assess handler: whatever the mutator produces, the server must
// answer with well-formed JSON — a valid assessment or a typed error
// body — and never panic. The seed corpus mirrors the wfjson fuzz
// seeds lifted to the request envelope.
func FuzzAssessCrashSafety(f *testing.F) {
	for _, seed := range crashSeeds(f) {
		f.Add(seed)
	}

	s := New(Options{Workers: 1, RequestTimeout: 2 * time.Second, Logger: testLogger()})
	handler := s.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/assess", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // a panic escaping here fails the fuzz run

		resp := rec.Result()
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var out AssessResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("200 body is not a valid assessment: %v\n%s", err, raw)
			}
			return
		}
		var e ErrorResponse
		if err := json.Unmarshal(bytes.TrimSpace(raw), &e); err != nil {
			t.Fatalf("status %d body is not well-formed JSON: %v\n%s", resp.StatusCode, err, raw)
		}
		if e.Error == "" {
			t.Fatalf("status %d error body missing the error field: %s", resp.StatusCode, raw)
		}
	})
}
