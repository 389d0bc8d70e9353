package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/config"
	"performa/internal/engine"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/stream"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// paperSystem returns the paper's e-commerce system (environment plus
// the EP and order workflows) both as the wire document requests carry
// and as the analysis the direct planner calls evaluate — the reference
// the service's answers must match bit for bit.
func paperSystem(t testing.TB) (wfjson.Document, *perf.Analysis) {
	t.Helper()
	return systemOf(t, workload.PaperEnvironment(), workload.EPWorkflow(5), workload.OrderWorkflow(3))
}

// planSearchSystem is the seven-type plan-search system: the EP
// workflow distributed over the extended environment.
func planSearchSystem(t testing.TB) (wfjson.Document, *perf.Analysis) {
	t.Helper()
	return systemOf(t, workload.ExtendedEnvironment(), workload.EPDistributed(25))
}

// unfinishableGoals is a waiting goal no candidate meets. An exhaustive
// search for it on planSearchSystem walks the whole default
// 64-per-type box, 64^7 ≈ 4.4e12 candidates, so it cannot finish before
// its deadline, and a search that ignores its context fails the test by
// timeout instead of passing by luck.
var unfinishableGoals = GoalsJSON{MaxWaiting: 1e-300}

// systemOf returns env under flows both as a wire document and as the
// analysis the direct planner calls evaluate.
func systemOf(t testing.TB, env *spec.Environment, flows ...*spec.Workflow) (wfjson.Document, *perf.Analysis) {
	t.Helper()
	doc, err := wfjson.ToDocument(env, flows)
	if err != nil {
		t.Fatal(err)
	}
	var models []*spec.Model
	for _, w := range flows {
		m, err := spec.Build(w, env)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	a, err := perf.NewAnalysis(env, models)
	if err != nil {
		t.Fatal(err)
	}
	return *doc, a
}

// directOptions are the evaluation options the server applies to a
// request with a zero ModelJSON.
func directOptions() config.Options {
	return config.Options{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	}
}

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = testLogger()
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body and decodes the response into out (when non-nil),
// returning the status code.
func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// assertAssessmentMatches compares a wire assessment to a direct one
// field by field, requiring bit-identical floats.
func assertAssessmentMatches(t *testing.T, label string, got AssessmentJSON, want *config.Assessment) {
	t.Helper()
	if got.Feasible != want.Feasible() || got.PerfOK != want.PerfOK || got.AvailOK != want.AvailOK {
		t.Errorf("%s: feasibility (%v,%v,%v) != (%v,%v,%v)", label,
			got.Feasible, got.PerfOK, got.AvailOK, want.Feasible(), want.PerfOK, want.AvailOK)
	}
	if got.Unavailability != want.Unavailability {
		t.Errorf("%s: unavailability %v != %v", label, got.Unavailability, want.Unavailability)
	}
	if got.Availability != want.Perf.Availability {
		t.Errorf("%s: availability %v != %v", label, got.Availability, want.Perf.Availability)
	}
	if len(got.Waiting) != len(want.Perf.Waiting) {
		t.Fatalf("%s: waiting arity %d != %d", label, len(got.Waiting), len(want.Perf.Waiting))
	}
	for x := range want.Perf.Waiting {
		if float64(got.Waiting[x]) != want.Perf.Waiting[x] {
			t.Errorf("%s: W[%d] = %v, want %v (bit-identical)", label, x, got.Waiting[x], want.Perf.Waiting[x])
		}
	}
}

func configsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAssessMatchesDirect(t *testing.T) {
	doc, a := paperSystem(t)
	goals := config.Goals{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	want, err := config.Assess(a, perf.Config{Replicas: []int{3, 3, 4}}, goals, directOptions())
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 4})
	var resp AssessResponse
	status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc,
		Config: []int{3, 3, 4},
		Goals:  GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.CacheWarm {
		t.Error("first request reported a warm cache")
	}
	if len(resp.ServerTypes) != a.Env().K() {
		t.Errorf("server types %v, want %d names", resp.ServerTypes, a.Env().K())
	}
	assertAssessmentMatches(t, "assess", resp.Assessment, want)
}

// TestRecommendMatchesEachPlanner pins the service's answers to the
// direct planner calls for all three planners: same system, same goals,
// bit-identical configuration and metrics.
func TestRecommendMatchesEachPlanner(t *testing.T) {
	doc, a := paperSystem(t)
	goals := config.Goals{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	cons := config.Constraints{MaxReplicas: []int{6, 6, 6}}

	planners := []struct {
		name string
		run  func() (*config.Recommendation, error)
	}{
		{"greedy", func() (*config.Recommendation, error) {
			return config.Greedy(a, goals, cons, directOptions())
		}},
		{"exhaustive", func() (*config.Recommendation, error) {
			return config.Exhaustive(a, goals, cons, directOptions())
		}},
		{"bnb", func() (*config.Recommendation, error) {
			return config.BranchAndBound(a, goals, cons, directOptions())
		}},
	}

	_, ts := newTestServer(t, Options{Workers: 4})
	for _, p := range planners {
		t.Run(p.name, func(t *testing.T) {
			want, err := p.run()
			if err != nil {
				t.Fatal(err)
			}
			var resp RecommendResponse
			status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
				System:      doc,
				Planner:     p.name,
				Goals:       GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
				Constraints: ConstraintsJSON{MaxReplicas: []int{6, 6, 6}},
			}, &resp)
			if status != http.StatusOK {
				t.Fatalf("status = %d", status)
			}
			if !configsEqual(resp.Config, want.Config.Replicas) {
				t.Errorf("config %v != %v", resp.Config, want.Config.Replicas)
			}
			if resp.Cost != want.Cost {
				t.Errorf("cost %d != %d", resp.Cost, want.Cost)
			}
			if resp.Evaluations != want.Evaluations {
				t.Errorf("evaluations %d != %d", resp.Evaluations, want.Evaluations)
			}
			assertAssessmentMatches(t, p.name, resp.Assessment, want.Assessment)
			if p.name == "greedy" && len(resp.Trace) != len(want.Trace) {
				t.Errorf("trace length %d != %d", len(resp.Trace), len(want.Trace))
			}
		})
	}
}

// TestConcurrentRequestsBitIdentical is the acceptance scenario: 16
// concurrent assess/recommend requests over the paper's e-commerce
// system — mixed planners, all racing on one warm model entry — each
// return exactly the direct planner's answer, and the stats surface
// reports the warm evaluator doing its job.
func TestConcurrentRequestsBitIdentical(t *testing.T) {
	doc, a := paperSystem(t)
	goals := config.Goals{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	cons := config.Constraints{MaxReplicas: []int{6, 6, 6}}

	wantAssess, err := config.Assess(a, perf.Config{Replicas: []int{3, 3, 4}}, goals, directOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantGreedy, err := config.Greedy(a, goals, cons, directOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantBnB, err := config.BranchAndBound(a, goals, cons, directOptions())
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 4})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				var resp AssessResponse
				status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
					System: doc,
					Config: []int{3, 3, 4},
					Goals:  GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
				}, &resp)
				if status != http.StatusOK {
					errs <- fmt.Errorf("assess %d: status %d", i, status)
					return
				}
				for x := range wantAssess.Perf.Waiting {
					if float64(resp.Assessment.Waiting[x]) != wantAssess.Perf.Waiting[x] {
						errs <- fmt.Errorf("assess %d: W[%d] = %v, want %v",
							i, x, resp.Assessment.Waiting[x], wantAssess.Perf.Waiting[x])
						return
					}
				}
			case 1:
				var resp RecommendResponse
				status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
					System:      doc,
					Planner:     "greedy",
					Goals:       GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
					Constraints: ConstraintsJSON{MaxReplicas: []int{6, 6, 6}},
				}, &resp)
				if status != http.StatusOK {
					errs <- fmt.Errorf("greedy %d: status %d", i, status)
					return
				}
				if !configsEqual(resp.Config, wantGreedy.Config.Replicas) || resp.Cost != wantGreedy.Cost {
					errs <- fmt.Errorf("greedy %d: config %v cost %d, want %v cost %d",
						i, resp.Config, resp.Cost, wantGreedy.Config.Replicas, wantGreedy.Cost)
					return
				}
				if resp.Assessment.Unavailability != wantGreedy.Assessment.Unavailability {
					errs <- fmt.Errorf("greedy %d: unavailability %v != %v",
						i, resp.Assessment.Unavailability, wantGreedy.Assessment.Unavailability)
					return
				}
			case 2:
				var resp RecommendResponse
				status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
					System:      doc,
					Planner:     "bnb",
					Goals:       GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
					Constraints: ConstraintsJSON{MaxReplicas: []int{6, 6, 6}},
				}, &resp)
				if status != http.StatusOK {
					errs <- fmt.Errorf("bnb %d: status %d", i, status)
					return
				}
				if !configsEqual(resp.Config, wantBnB.Config.Replicas) || resp.Cost != wantBnB.Cost {
					errs <- fmt.Errorf("bnb %d: config %v cost %d, want %v cost %d",
						i, resp.Config, resp.Cost, wantBnB.Config.Replicas, wantBnB.Cost)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every request shares one warm model entry; 15 of the 16 found it
	// resident, and the planners racing over the shared evaluator filled
	// its availability-marginal cache.
	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if stats.ModelCache.Size != 1 {
		t.Errorf("model cache holds %d entries, want 1", stats.ModelCache.Size)
	}
	if stats.ModelCache.Hits == 0 {
		t.Error("model cache reported zero hits after 16 requests over one system")
	}
	if len(stats.Evaluators) != 1 {
		t.Fatalf("stats lists %d evaluators, want 1", len(stats.Evaluators))
	}
	if stats.Evaluators[0].Marginals == 0 {
		t.Error("warm evaluator reported an empty marginal cache")
	}
	if stats.Endpoints["/v1/recommend"].Requests == 0 || stats.Endpoints["/v1/assess"].Requests == 0 {
		t.Errorf("endpoint stats missing traffic: %+v", stats.Endpoints)
	}

	// A follow-up request over the same system is served warm.
	var resp AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc,
		Config: []int{3, 3, 4},
		Goals:  GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
	}, &resp); status != http.StatusOK {
		t.Fatalf("warm assess status = %d", status)
	}
	if !resp.CacheWarm {
		t.Error("follow-up request did not hit the warm model cache")
	}
}

// TestRecommendTimeoutCancelsCleanly covers the cancellation acceptance
// path: an exhaustive search that cannot finish inside its timeout_ms
// returns 504 promptly, and the interrupted run leaves the shared
// evaluator reusable — the next greedy request still matches the direct
// planner exactly.
func TestRecommendTimeoutCancelsCleanly(t *testing.T) {
	doc, a := planSearchSystem(t)
	goals := config.Goals{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}

	_, ts := newTestServer(t, Options{Workers: 2})

	// Warm the model entry first so the timeout hits the search itself,
	// not the model build.
	var warmup AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc,
		Config: []int{2, 2, 2, 2, 2, 2, 2},
		Goals:  unfinishableGoals,
	}, &warmup); status != http.StatusOK {
		t.Fatalf("warmup status = %d", status)
	}

	// The unfinishable exhaustive search cannot end inside 150 ms; the
	// deadline must cancel it mid-search.
	began := time.Now()
	status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
		System:        doc,
		Planner:       "exhaustive",
		Goals:         unfinishableGoals,
		TimeoutMillis: 150,
	}, nil)
	elapsed := time.Since(began)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("canceled search took %v to return", elapsed)
	}

	// A client disconnect mid-search unwinds the same way: the request
	// context cancels, the client sees its own context error.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(RecommendRequest{
		System:  doc,
		Planner: "exhaustive",
		Goals:   unfinishableGoals,
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/recommend", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("disconnected request returned err = %v, want context.DeadlineExceeded", err)
	}

	// The interrupted searches must not have poisoned the shared caches:
	// the same server still answers exactly like the direct planner.
	want, err := config.Greedy(a, goals, config.Constraints{}, directOptions())
	if err != nil {
		t.Fatal(err)
	}
	var resp RecommendResponse
	if status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
		System:  doc,
		Planner: "greedy",
		Goals:   GoalsJSON{MaxWaiting: goals.MaxWaiting, MaxUnavailability: goals.MaxUnavailability},
	}, &resp); status != http.StatusOK {
		t.Fatalf("post-cancel greedy status = %d", status)
	}
	if !resp.CacheWarm {
		t.Error("post-cancel request did not reuse the warm model entry")
	}
	if !configsEqual(resp.Config, want.Config.Replicas) || resp.Cost != want.Cost {
		t.Errorf("post-cancel config %v cost %d, want %v cost %d",
			resp.Config, resp.Cost, want.Config.Replicas, want.Cost)
	}
	for x := range want.Assessment.Perf.Waiting {
		if float64(resp.Assessment.Waiting[x]) != want.Assessment.Perf.Waiting[x] {
			t.Errorf("post-cancel W[%d] = %v, want %v (cache poisoned?)",
				x, resp.Assessment.Waiting[x], want.Assessment.Perf.Waiting[x])
		}
	}
}

// TestCalibrateRecalibratesSystem runs a trail from the mini-WFMS
// runtime through /v1/calibrate and checks the returned system moved
// towards the observed behavior.
func TestCalibrateRecalibratesSystem(t *testing.T) {
	env := workload.PaperEnvironment()
	designed := workload.EPWorkflow(0.05)
	doc, err := wfjson.ToDocument(env, []*spec.Workflow{designed})
	if err != nil {
		t.Fatal(err)
	}

	// Reality: instances spaced 2 minutes apart (≈ 0.5/min).
	rt := engine.New(env, engine.Options{
		TimeScale:      0.004,
		Seed:           3,
		AppWorkers:     map[string]int{workload.AppType: 256},
		Users:          256,
		ServerReplicas: map[string]int{workload.ORB: 256, workload.EngineType: 256, workload.AppType: 256},
	})
	if _, err := rt.RunInstances(context.Background(), workload.EPWorkflow(0.5), 60, 2); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 2})
	var resp CalibrateResponse
	status := postJSON(t, ts.URL+"/v1/calibrate", CalibrateRequest{
		System:       *doc,
		Trail:        rt.Trail().Records(),
		MinInstances: 20,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.Fingerprint == resp.PriorFingerprint {
		t.Error("calibration did not change the system fingerprint")
	}
	rate := resp.ArrivalRates[designed.Name]
	if rate < 0.2 || rate > 0.7 {
		t.Errorf("calibrated arrival rate = %v, want ≈ 0.5", rate)
	}

	// The recalibrated system is pre-warmed: assessing it hits the cache.
	var as AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: resp.System,
		Config: []int{2, 2, 2},
		Goals:  GoalsJSON{MaxUnavailability: 1e-4},
	}, &as); status != http.StatusOK {
		t.Fatalf("post-calibrate assess status = %d", status)
	}
	if !as.CacheWarm {
		t.Error("recalibrated system was not pre-warmed in the model cache")
	}
	if as.Fingerprint != resp.Fingerprint {
		t.Errorf("fingerprint mismatch: assess %s, calibrate %s", as.Fingerprint, resp.Fingerprint)
	}
}

func TestCalibrateRejectsSparseTrail(t *testing.T) {
	env := workload.PaperEnvironment()
	flow := workload.EPWorkflow(1)
	doc, err := wfjson.ToDocument(env, []*spec.Workflow{flow})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 2})

	// An empty trail is malformed input (400)...
	status := postJSON(t, ts.URL+"/v1/calibrate", CalibrateRequest{System: *doc}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("empty trail status = %d, want 400", status)
	}

	// ...while one completed instance is valid but too sparse to trust
	// (422, below the default 50-instance threshold).
	sparse := []audit.Record{
		{Kind: audit.InstanceStarted, Time: 0, Workflow: flow.Name, Instance: 1},
		{Kind: audit.InstanceCompleted, Time: 3, Workflow: flow.Name, Instance: 1},
	}
	status = postJSON(t, ts.URL+"/v1/calibrate", CalibrateRequest{System: *doc, Trail: sparse}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("sparse trail status = %d, want 422", status)
	}
}

// TestCalibrateMatchesStreamedRecalibration pins "same records, same
// model" across the two routes: a trail POSTed to /v1/calibrate returns
// the system — branch probabilities, durations, arrival rate and
// measured service moments — that a drift rebuild derives from the same
// records streamed through /v1/events.
func TestCalibrateMatchesStreamedRecalibration(t *testing.T) {
	env, flows, doc := ingestSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	// The drift test's trail, with service times alternating 0.1 / 0.3
	// around its 0.2: the wire format cannot carry a deterministic
	// service time (an scv of 0 reads as the exponential default).
	recs := ingestRecords(120, 0)
	for i := range recs {
		if recs[i].Kind == audit.ServiceRequest {
			recs[i].Service = 0.1 + 0.2*float64(i/10%2)
		}
	}
	req := AssessRequest{System: doc, Config: []int{2}, Goals: GoalsJSON{MaxWaiting: 0.5, MaxUnavailability: 1e-2}}

	// Streamed route: warm the designed model, drift it, re-assess.
	var designed, streamed AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", req, &designed); status != http.StatusOK {
		t.Fatalf("warmup assess status = %d", status)
	}
	if status, ev, _ := postEvents(t, ts.URL, designed.Fingerprint, recs); status != http.StatusOK || !ev.Invalidated {
		t.Fatalf("events status = %d, invalidated = %v", status, ev.Invalidated)
	}
	if status := postJSON(t, ts.URL+"/v1/assess", req, &streamed); status != http.StatusOK {
		t.Fatalf("post-drift assess status = %d", status)
	}

	// Batch route: the same records as a trail.
	var cal CalibrateResponse
	if status := postJSON(t, ts.URL+"/v1/calibrate", CalibrateRequest{System: doc, Trail: recs}, &cal); status != http.StatusOK {
		t.Fatalf("calibrate status = %d", status)
	}
	// Its fingerprint is that of the system the drift rebuild builds:
	// the streamed estimator's snapshot applied to the posted document.
	est := stream.NewEstimator(stream.Options{})
	est.ObserveBatch(recs)
	snap, err := est.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	measured, err := snap.ApplySystem(env, flows, calibrate.Options{Smoothing: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want, err := wfjson.Fingerprint(measured, flows); err != nil || cal.Fingerprint != want {
		t.Errorf("calibrate fingerprint %s, want the streamed rebuild's %s (err %v)", cal.Fingerprint, want, err)
	}
	// The returned document carries the measured service moments (mean
	// 0.2, second moment 0.05: scv 0.25), not the designed 0.1 / 0.02.
	if got := cal.System.Environment.Types[0]; math.Abs(got.MeanService-0.2) > 1e-12 || math.Abs(got.ServiceSCV-0.25) > 1e-9 {
		t.Errorf("returned system service mean %v scv %v, want measured 0.2 / 0.25", got.MeanService, got.ServiceSCV)
	}

	// And it assesses exactly like the drift-rebuilt model.
	var batch AssessResponse
	req.System = cal.System
	if status := postJSON(t, ts.URL+"/v1/assess", req, &batch); status != http.StatusOK {
		t.Fatalf("calibrated assess status = %d", status)
	}
	if !batch.CacheWarm || batch.Fingerprint != cal.Fingerprint {
		t.Errorf("calibrated system not pre-warmed: warm %v, fingerprint %s vs %s", batch.CacheWarm, batch.Fingerprint, cal.Fingerprint)
	}
	if batch.Assessment.Waiting[0] != streamed.Assessment.Waiting[0] ||
		batch.Assessment.Unavailability != streamed.Assessment.Unavailability {
		t.Errorf("batch route W %v / U %v != streamed route W %v / U %v (bit-identical)",
			batch.Assessment.Waiting[0], batch.Assessment.Unavailability,
			streamed.Assessment.Waiting[0], streamed.Assessment.Unavailability)
	}
	if streamed.Assessment.Waiting[0] == designed.Assessment.Waiting[0] {
		t.Error("recalibration did not move the waiting time")
	}
}

func TestBadRequests(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed JSON", "/v1/assess", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/assess", `{"bogus": 1}`, http.StatusBadRequest},
		{"no goals", "/v1/assess", mustJSON(t, AssessRequest{System: doc, Config: []int{2, 2, 2}}), http.StatusUnprocessableEntity},
		{"unknown planner", "/v1/recommend", mustJSON(t, RecommendRequest{
			System: doc, Planner: "magic", Goals: GoalsJSON{MaxUnavailability: 1e-5},
		}), http.StatusBadRequest},
		{"unknown policy", "/v1/assess", mustJSON(t, AssessRequest{
			System: doc, Config: []int{2, 2, 2},
			Goals: GoalsJSON{MaxUnavailability: 1e-5}, Model: ModelJSON{Policy: "psychic"},
		}), http.StatusBadRequest},
		{"wrong config arity", "/v1/assess", mustJSON(t, AssessRequest{
			System: doc, Config: []int{2}, Goals: GoalsJSON{MaxUnavailability: 1e-5},
		}), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				raw, _ := io.ReadAll(resp.Body)
				t.Errorf("status = %d, want %d\n%s", resp.StatusCode, tc.want, raw)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error == "" {
				t.Error("error body missing the error field")
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestShutdownRefusesNewRequests(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status after shutdown = %d, want 503", resp.StatusCode)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc,
		Config: []int{2, 2, 2},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
	}, nil); status != http.StatusOK {
		t.Fatalf("assess status = %d", status)
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
	text := string(raw)
	for _, series := range []string{
		`wfmsd_requests_total{endpoint="/v1/assess",code="200"} 1`,
		`wfmsd_request_duration_seconds_count{endpoint="/v1/assess"} 1`,
		"wfmsd_model_cache_entries 1",
		"wfmsd_admission_in_use 0",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %q", series)
		}
	}

	var health struct {
		Status string `json:"status"`
	}
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %q", status, health.Status)
	}
}

// TestFloatJSONRoundTrip pins the non-finite encoding: saturated
// candidates put +Inf in greedy traces, which must survive the wire.
func TestFloatJSONRoundTrip(t *testing.T) {
	in := []Float{1.5, Float(math.Inf(1)), Float(math.Inf(-1))}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Float
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1.5 || !math.IsInf(float64(out[1]), 1) || !math.IsInf(float64(out[2]), -1) {
		t.Errorf("round trip %s -> %v", buf, out)
	}
}
