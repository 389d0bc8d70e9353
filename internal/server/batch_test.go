package server

// Batch-endpoint coverage: build amortization across same-fingerprint
// items, bit-identical parity with the singleton endpoints under
// concurrent load, per-item error isolation, and the batch-envelope
// validation (size bounds, negative timeouts).

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/wfmserr"
)

// batchConfigs are the replication vectors the batch tests evaluate over
// the paper system — a mix of feasible and saturated configurations.
func batchConfigs() [][]int {
	return [][]int{
		{1, 1, 1},
		{2, 2, 2},
		{3, 3, 4},
		{2, 3, 2},
		{4, 2, 3},
		{1, 2, 3},
	}
}

// TestAssessBatchAmortizesBuilds pins the endpoint's reason to exist: N
// items sharing a system fingerprint cost exactly one model build on a
// cold cache, every result still bit-identical to the direct planner.
func TestAssessBatchAmortizesBuilds(t *testing.T) {
	doc, a := paperSystem(t)
	s, ts := newTestServer(t, Options{Workers: 4})

	goals := GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	req := AssessBatchRequest{}
	for _, cfg := range batchConfigs() {
		req.Items = append(req.Items, AssessBatchItem{System: doc, Config: cfg, Goals: goals})
	}
	var resp AssessBatchResponse
	if status := postJSON(t, ts.URL+"/v1/assess-batch", req, &resp); status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", status)
	}
	n := len(req.Items)
	if len(resp.Items) != n {
		t.Fatalf("got %d items, want %d", len(resp.Items), n)
	}
	if resp.Groups != 1 {
		t.Errorf("Groups = %d, want 1 (all items share one fingerprint and options)", resp.Groups)
	}
	if resp.ModelBuilds != 1 {
		t.Errorf("ModelBuilds = %d, want 1 (the amortization guarantee)", resp.ModelBuilds)
	}
	if resp.CacheWarm != n-1 {
		t.Errorf("CacheWarm = %d, want %d", resp.CacheWarm, n-1)
	}
	if misses := s.models.misses.Load(); misses != 1 {
		t.Errorf("model cache misses = %d after the batch, want 1", misses)
	}
	for i, item := range resp.Items {
		if item.Error != nil {
			t.Fatalf("item %d failed: %s (%s)", i, item.Error.Error, item.Error.Code)
		}
		if item.Index != i {
			t.Errorf("item %d reports index %d; results must keep input order", i, item.Index)
		}
		want, err := config.Assess(a, perf.Config{Replicas: batchConfigs()[i]}, goals.toGoals(), directOptions())
		if err != nil {
			t.Fatal(err)
		}
		assertAssessmentMatches(t, fmt.Sprintf("batch item %d", i), *item.Assessment, want)
	}

	// The counters surface the amortization for operators too.
	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if stats.Batch.Items != uint64(n) || stats.Batch.Builds != 1 {
		t.Errorf("batch stats = %+v, want items=%d builds=1", stats.Batch, n)
	}
}

// TestBatchWithinTenantBudget pins the batch weight under tenant
// quotas: a batch with more items than the tenant budget is admitted on
// an idle server at the budget's width, every item answers, and its
// tokens come back afterwards.
func TestBatchWithinTenantBudget(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 4, TenantBudget: 2})

	req := AssessBatchRequest{Tenant: "alice"}
	for _, cfg := range batchConfigs() {
		req.Items = append(req.Items, AssessBatchItem{System: doc, Config: cfg, Goals: GoalsJSON{MaxUnavailability: 1e-5}})
	}
	var resp AssessBatchResponse
	if status, e := postRaw(t, ts.URL+"/v1/assess-batch", mustJSON(t, req)); status != http.StatusOK {
		t.Fatalf("batch of %d items under budget 2: status %d (%s: %s), want 200", len(req.Items), status, e.Code, e.Error)
	}
	if status := postJSON(t, ts.URL+"/v1/assess-batch", req, &resp); status != http.StatusOK {
		t.Fatalf("second batch status = %d, want 200", status)
	}
	for i, item := range resp.Items {
		if item.Error != nil || item.Assessment == nil {
			t.Errorf("item %d: %+v, want an assessment", i, item.Error)
		}
	}
	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if alice := stats.Tenants["alice"]; alice.Requests != 2 || alice.Rejections != 0 || alice.InUse != 0 {
		t.Errorf("alice stats = %+v, want requests=2 rejections=0 in_use=0", alice)
	}
	if stats.Admission.InUse != 0 {
		t.Errorf("admission in_use = %d after the batches, want 0", stats.Admission.InUse)
	}
}

// TestConcurrentBatchBitIdenticalToSingletons is the PR's e2e race
// gate: batch requests racing singleton requests over the same system
// must all return results bit-identical to the direct planner — the
// admission weighting and item fan-out may change scheduling, never
// numbers.
func TestConcurrentBatchBitIdenticalToSingletons(t *testing.T) {
	doc, a := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 4})

	goals := GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	configs := batchConfigs()
	want := make([]*config.Assessment, len(configs))
	for i, cfg := range configs {
		w, err := config.Assess(a, perf.Config{Replicas: cfg}, goals.toGoals(), directOptions())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	batchReq := AssessBatchRequest{}
	for _, cfg := range configs {
		batchReq.Items = append(batchReq.Items, AssessBatchItem{System: doc, Config: cfg, Goals: goals})
	}

	const rounds = 4
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			var resp AssessBatchResponse
			if status := postJSON(t, ts.URL+"/v1/assess-batch", batchReq, &resp); status != http.StatusOK {
				t.Errorf("batch status = %d", status)
				return
			}
			for i, item := range resp.Items {
				if item.Error != nil {
					t.Errorf("batch item %d failed: %s", i, item.Error.Error)
					continue
				}
				assertAssessmentMatches(t, fmt.Sprintf("concurrent batch item %d", i), *item.Assessment, want[i])
			}
		}()
		go func() {
			defer wg.Done()
			for i, cfg := range configs {
				var resp AssessResponse
				if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
					System: doc, Config: cfg, Goals: goals,
				}, &resp); status != http.StatusOK {
					t.Errorf("singleton status = %d", status)
					continue
				}
				assertAssessmentMatches(t, fmt.Sprintf("concurrent singleton %d", i), resp.Assessment, want[i])
			}
		}()
	}
	wg.Wait()
}

// TestRecommendBatchMatchesSingleton runs each planner once through the
// batch endpoint and once through /v1/recommend and requires identical
// plans: same configuration, cost, evaluation count, and bit-identical
// assessment.
func TestRecommendBatchMatchesSingleton(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 4})

	goals := GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	items := []RecommendBatchItem{
		{System: doc, Planner: "greedy", Goals: goals},
		{System: doc, Planner: "bnb", Goals: goals},
		{System: doc, Planner: "exhaustive", Goals: goals},
	}
	var batch RecommendBatchResponse
	if status := postJSON(t, ts.URL+"/v1/recommend-batch", RecommendBatchRequest{Items: items}, &batch); status != http.StatusOK {
		t.Fatalf("recommend-batch status = %d", status)
	}
	if batch.Groups != 1 || batch.ModelBuilds != 1 {
		t.Errorf("Groups=%d ModelBuilds=%d, want 1/1 (one system, three planners)", batch.Groups, batch.ModelBuilds)
	}
	for i, item := range items {
		got := batch.Items[i]
		if got.Error != nil {
			t.Fatalf("batch item %d (%s) failed: %s", i, item.Planner, got.Error.Error)
		}
		var single RecommendResponse
		if status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
			System: doc, Planner: item.Planner, Goals: goals,
		}, &single); status != http.StatusOK {
			t.Fatalf("singleton %s status = %d", item.Planner, status)
		}
		if !configsEqual(got.Recommendation.Config, single.Config) {
			t.Errorf("%s: batch config %v != singleton %v", item.Planner, got.Recommendation.Config, single.Config)
		}
		if got.Recommendation.Cost != single.Cost {
			t.Errorf("%s: batch cost %d != singleton %d", item.Planner, got.Recommendation.Cost, single.Cost)
		}
		if got.Recommendation.Evaluations != single.Evaluations {
			t.Errorf("%s: batch evaluations %d != singleton %d", item.Planner, got.Recommendation.Evaluations, single.Evaluations)
		}
		if mustJSON(t, got.Recommendation.Assessment) != mustJSON(t, single.Assessment) {
			t.Errorf("%s: batch assessment differs from singleton:\n%s\n%s",
				item.Planner, mustJSON(t, got.Recommendation.Assessment), mustJSON(t, single.Assessment))
		}
	}
}

// TestBatchItemErrorsIsolated pins per-item containment: one malformed
// item costs one item-level typed error while its siblings still
// succeed, and the batch itself stays a 200.
func TestBatchItemErrorsIsolated(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	goals := GoalsJSON{MaxUnavailability: 1e-5}
	bad := ModelJSON{Policy: "psychic"}
	req := AssessBatchRequest{Items: []AssessBatchItem{
		{System: doc, Config: []int{2, 2, 2}, Goals: goals},
		{System: doc, Config: []int{2, 2, 2}, Goals: goals, Model: &bad},
		{System: doc, Config: []int{1 << 30, 1 << 30, 1 << 30}, Goals: goals},
		{System: doc, Config: []int{3, 3, 4}, Goals: goals},
	}}
	var resp AssessBatchResponse
	if status := postJSON(t, ts.URL+"/v1/assess-batch", req, &resp); status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 despite bad items", status)
	}
	if resp.Items[0].Error != nil || resp.Items[0].Assessment == nil {
		t.Errorf("item 0 should have succeeded: %+v", resp.Items[0].Error)
	}
	if resp.Items[1].Error == nil {
		t.Error("item 1 (unknown policy) should carry an error")
	}
	if resp.Items[2].Error == nil || resp.Items[2].Error.Code != string(wfmserr.CodeStateSpaceTooLarge) {
		t.Errorf("item 2 (oversized state space) error = %+v, want code %s", resp.Items[2].Error, wfmserr.CodeStateSpaceTooLarge)
	}
	if resp.Items[3].Error != nil || resp.Items[3].Assessment == nil {
		t.Errorf("item 3 should have succeeded: %+v", resp.Items[3].Error)
	}
}

// TestRemovedPlannerRejected pins the removed annealing planner's wire
// name: it is an unknown planner on both recommend endpoints, rejected
// with a typed invalid_request that names the three planners there are.
func TestRemovedPlannerRejected(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	goals := GoalsJSON{MaxUnavailability: 1e-5}
	const want = `unknown planner "anneal" (want greedy, exhaustive, or bnb)`

	status, e := postRaw(t, ts.URL+"/v1/recommend", mustJSON(t, RecommendRequest{System: doc, Planner: "anneal", Goals: goals}))
	if status != http.StatusBadRequest || e.Code != string(wfmserr.CodeInvalidRequest) || !strings.Contains(e.Error, want) {
		t.Errorf("/v1/recommend: %d %q %q, want 400 %s naming %s", status, e.Code, e.Error, wfmserr.CodeInvalidRequest, want)
	}

	var batch RecommendBatchResponse
	if status := postJSON(t, ts.URL+"/v1/recommend-batch", RecommendBatchRequest{Items: []RecommendBatchItem{
		{System: doc, Planner: "anneal", Goals: goals},
	}}, &batch); status != http.StatusOK {
		t.Fatalf("/v1/recommend-batch status = %d", status)
	}
	if e := batch.Items[0].Error; e == nil || e.Code != string(wfmserr.CodeInvalidRequest) || !strings.Contains(e.Error, want) {
		t.Errorf("/v1/recommend-batch item error = %+v, want %s naming %s", e, wfmserr.CodeInvalidRequest, want)
	}
}

// TestForEachItemContainsPanics pins panic containment below the
// handler: a batch item whose work panics costs that item a typed
// internal error, counted as a recovered panic, while the other items
// complete and the process survives.
func TestForEachItemContainsPanics(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 2})
	const n = 6
	done := make([]bool, n)
	errs := make([]error, n)
	s.forEachItem(n, 2, func(i int) {
		if i == 3 {
			panic("boom")
		}
		done[i] = true
	}, func(i int, err error) { errs[i] = err })
	for i := 0; i < n; i++ {
		if i == 3 {
			if errs[i] == nil || wfmserr.CodeOf(errs[i]) != wfmserr.CodeInternal {
				t.Errorf("panicking item error = %v, want code %s", errs[i], wfmserr.CodeInternal)
			}
			continue
		}
		if !done[i] || errs[i] != nil {
			t.Errorf("item %d: done %v, err %v; want completed without error", i, done[i], errs[i])
		}
	}
	if got := s.errs.panics.Load(); got != 1 {
		t.Errorf("recovered panics = %d, want 1", got)
	}
}

// TestBatchEnvelopeValidation covers the batch-level rejections: empty
// batches, batches beyond MaxBatchItems, and the negative-timeout
// regression on both batch endpoints.
func TestBatchEnvelopeValidation(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2, MaxBatchItems: 2})

	item := AssessBatchItem{System: doc, Config: []int{2, 2, 2}, Goals: GoalsJSON{MaxUnavailability: 1e-5}}
	cases := []struct {
		name string
		path string
		body string
	}{
		{"empty assess batch", "/v1/assess-batch", mustJSON(t, AssessBatchRequest{})},
		{"oversized assess batch", "/v1/assess-batch", mustJSON(t, AssessBatchRequest{Items: []AssessBatchItem{item, item, item}})},
		{"negative assess-batch timeout", "/v1/assess-batch", mustJSON(t, AssessBatchRequest{Items: []AssessBatchItem{item}, TimeoutMillis: -1})},
		{"empty recommend batch", "/v1/recommend-batch", mustJSON(t, RecommendBatchRequest{})},
		{"negative recommend-batch timeout", "/v1/recommend-batch", mustJSON(t, RecommendBatchRequest{
			Items:         []RecommendBatchItem{{System: doc, Goals: GoalsJSON{MaxUnavailability: 1e-5}}},
			TimeoutMillis: -250,
		})},
	}
	for _, tc := range cases {
		status, e := postRaw(t, ts.URL+tc.path, tc.body)
		if status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422", tc.name, status)
		}
		if e.Code != string(wfmserr.CodeInvalidRequest) {
			t.Errorf("%s: code = %q, want %q", tc.name, e.Code, wfmserr.CodeInvalidRequest)
		}
	}
}
