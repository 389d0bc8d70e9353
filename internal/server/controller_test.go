package server

import (
	"context"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/sensitivity"
)

// waitAdvisories polls /v1/advisories until at least want advisories are
// visible (the controller emits them asynchronously after a crossing).
func waitAdvisories(t *testing.T, url string, want int) []AdvisoryJSON {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var resp AdvisoriesResponse
		if status := getJSON(t, url, &resp); status != http.StatusOK {
			t.Fatalf("advisories status = %d", status)
		}
		if len(resp.Advisories) >= want {
			return resp.Advisories
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d advisories, have %d", want, len(resp.Advisories))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReconfigureAdvisoryOnDrift is the acceptance scenario for the
// closed loop: a registered deployment drifts, the controller re-plans
// warm-started from the deployed configuration against the recalibrated
// model, and the advisory's recommendation is identical to re-running
// the same warm-started plan through /v1/recommend.
func TestReconfigureAdvisoryOnDrift(t *testing.T) {
	_, _, doc := ingestSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2, Reconfigure: true})

	dep := DeploymentRequest{
		System: doc,
		Config: []int{2},
		Goals:  GoalsJSON{MaxWaiting: 0.5, MaxUnavailability: 1e-2},
	}
	var reg DeploymentJSON
	if status := postJSON(t, ts.URL+"/v1/deployments", dep, &reg); status != http.StatusOK {
		t.Fatalf("deployment status = %d", status)
	}
	if reg.Fingerprint == "" || !configsEqual(reg.Config, []int{2}) {
		t.Fatalf("registration = %+v", reg)
	}
	if reg.Assessment == nil || !reg.Assessment.Feasible {
		t.Fatalf("deployed config not feasible at registration: %+v", reg.Assessment)
	}
	var deps DeploymentsResponse
	if status := getJSON(t, ts.URL+"/v1/deployments", &deps); status != http.StatusOK || len(deps.Deployments) != 1 {
		t.Fatalf("deployments list status %d, %d entries", status, len(deps.Deployments))
	}

	status, ev, _ := postEvents(t, ts.URL, reg.Fingerprint, ingestRecords(120, 0))
	if status != http.StatusOK || !ev.Invalidated {
		t.Fatalf("drift batch: status %d, invalidated %v", status, ev.Invalidated)
	}

	adv := waitAdvisories(t, ts.URL+"/v1/advisories", 1)[0]
	if adv.Fingerprint != reg.Fingerprint || adv.Generation != 1 {
		t.Errorf("advisory identity = %q gen %d, want %q gen 1", adv.Fingerprint, adv.Generation, reg.Fingerprint)
	}
	if !configsEqual(adv.OldConfig, []int{2}) {
		t.Errorf("old config = %v, want [2]", adv.OldConfig)
	}
	if adv.PlannerError != "" || adv.PlannerCode != "" {
		t.Fatalf("advisory reports planner failure: %s (%s)", adv.PlannerError, adv.PlannerCode)
	}
	if len(adv.NewConfig) == 0 || adv.NewAssessment == nil || !adv.NewAssessment.Feasible {
		t.Fatalf("advisory has no feasible recommendation: %+v", adv)
	}
	if adv.OldAssessment == nil {
		t.Fatal("advisory lacks the deployed config's post-drift assessment")
	}
	if adv.Justification == "" {
		t.Error("advisory lacks a sensitivity justification")
	}
	if len(adv.TopFactors) == 0 || len(adv.TopFactors) > advisoryTopFactors {
		t.Errorf("top factors = %d entries, want 1..%d", len(adv.TopFactors), advisoryTopFactors)
	}
	for _, f := range adv.TopFactors {
		if f.Attribution == "" {
			t.Errorf("top factor %s(%s) lacks an attribution", f.Kind, f.Target)
		}
	}
	if adv.LatencyMS <= 0 {
		t.Errorf("latency = %v ms, want > 0", adv.LatencyMS)
	}
	if adv.Trigger.Transition <= 0.25 {
		t.Errorf("trigger transition score = %v, want above threshold", adv.Trigger.Transition)
	}

	// The advisory must be identical to re-running the warm-started plan
	// through the public planner endpoint over the same (warm, gen-1)
	// recalibrated model.
	var rec RecommendResponse
	repReq := RecommendRequest{
		System:      doc,
		Goals:       dep.Goals,
		Constraints: ConstraintsJSON{StartFrom: []int{2}},
	}
	if status := postJSON(t, ts.URL+"/v1/recommend", repReq, &rec); status != http.StatusOK {
		t.Fatalf("warm-start recommend status = %d", status)
	}
	if !configsEqual(rec.Config, adv.NewConfig) {
		t.Errorf("advisory config %v != warm-start recommend %v", adv.NewConfig, rec.Config)
	}
	if float64(rec.Assessment.MaxWaiting) != float64(adv.NewAssessment.MaxWaiting) {
		t.Errorf("advisory max waiting %v != recommend %v (bit-identical)",
			adv.NewAssessment.MaxWaiting, rec.Assessment.MaxWaiting)
	}
	if rec.Assessment.Unavailability != adv.NewAssessment.Unavailability {
		t.Errorf("advisory unavailability %v != recommend %v",
			adv.NewAssessment.Unavailability, rec.Assessment.Unavailability)
	}
	// Feasibility equivalence with a cold plan over the same model.
	var cold RecommendResponse
	coldReq := RecommendRequest{System: doc, Goals: dep.Goals}
	if status := postJSON(t, ts.URL+"/v1/recommend", coldReq, &cold); status != http.StatusOK {
		t.Fatalf("cold recommend status = %d", status)
	}
	if !cold.Assessment.Feasible {
		t.Error("cold re-plan infeasible where warm-start succeeded")
	}
	if adv.NewAssessment.Feasible != cold.Assessment.Feasible {
		t.Error("warm-start and cold plans disagree on feasibility")
	}

	// since_id paging and fingerprint filtering.
	var page AdvisoriesResponse
	if getJSON(t, ts.URL+"/v1/advisories?since_id="+strconv.FormatUint(adv.ID, 10), &page); len(page.Advisories) != 0 {
		t.Errorf("since_id=%d returned %d advisories, want 0", adv.ID, len(page.Advisories))
	}
	if getJSON(t, ts.URL+"/v1/advisories?fingerprint=bogus", &page); len(page.Advisories) != 0 {
		t.Errorf("bogus fingerprint returned %d advisories", len(page.Advisories))
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics := readAll(t, resp)
	for _, want := range []string{
		`wfmsd_reconfigurations_total{outcome="advised"} 1`,
		`wfmsd_reconfigurations_total{outcome="failed"} 0`,
		"wfmsd_reconfigure_latency_seconds_count 1",
		"wfmsd_advisory_age_seconds",
		"wfmsd_deployments 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}

// TestReconfigureAdvisoryInfeasible: when the drifted load admits no
// configuration within constraints, the advisory still appears —
// carrying the typed infeasible code instead of a recommendation.
func TestReconfigureAdvisoryInfeasible(t *testing.T) {
	_, _, doc := ingestSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2, Reconfigure: true})

	// Learn the designed waiting time of the single-replica deployment,
	// then register with a goal 1.5× it: feasible as designed, violated
	// once the drifted trail doubles service times and durations.
	var base AssessResponse
	probe := AssessRequest{System: doc, Config: []int{1}, Goals: GoalsJSON{MaxWaiting: 10}}
	if status := postJSON(t, ts.URL+"/v1/assess", probe, &base); status != http.StatusOK {
		t.Fatalf("probe assess status = %d", status)
	}
	designed := float64(base.Assessment.MaxWaiting)
	if designed <= 0 || math.IsInf(designed, 1) {
		t.Fatalf("designed max waiting = %v", designed)
	}
	dep := DeploymentRequest{
		System:      doc,
		Config:      []int{1},
		Goals:       GoalsJSON{MaxWaiting: 1.5 * designed},
		Constraints: ConstraintsJSON{MaxReplicas: []int{1}},
	}
	var reg DeploymentJSON
	if status := postJSON(t, ts.URL+"/v1/deployments", dep, &reg); status != http.StatusOK {
		t.Fatalf("deployment status = %d", status)
	}
	if !reg.Assessment.Feasible {
		t.Fatalf("deployment infeasible before drift: %+v", reg.Assessment)
	}

	status, ev, _ := postEvents(t, ts.URL, reg.Fingerprint, ingestRecords(120, 0))
	if status != http.StatusOK || !ev.Invalidated {
		t.Fatalf("drift batch: status %d, invalidated %v", status, ev.Invalidated)
	}

	adv := waitAdvisories(t, ts.URL+"/v1/advisories", 1)[0]
	if adv.PlannerCode != "infeasible" {
		t.Fatalf("planner code = %q (%s), want infeasible", adv.PlannerCode, adv.PlannerError)
	}
	if len(adv.NewConfig) != 0 {
		t.Errorf("failed advisory carries a config: %v", adv.NewConfig)
	}
	if adv.OldAssessment == nil || adv.OldAssessment.Feasible {
		t.Errorf("deployed config should assess infeasible post-drift: %+v", adv.OldAssessment)
	}
}

// TestInfeasibleSurfacesEndToEnd: unreachable goals come back from the
// planner endpoints as 422 with the machine-readable "infeasible" code,
// for every planner with exhaustive evidence.
func TestInfeasibleSurfacesEndToEnd(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, planner := range []string{"greedy", "exhaustive", "bnb"} {
		req := RecommendRequest{
			System:      doc,
			Planner:     planner,
			Goals:       GoalsJSON{MaxUnavailability: 1e-12},
			Constraints: ConstraintsJSON{MaxReplicas: []int{2, 2, 2}},
		}
		status, e := postRaw(t, ts.URL+"/v1/recommend", mustJSON(t, req))
		if status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422", planner, status)
		}
		if e.Code != "infeasible" {
			t.Errorf("%s: code = %q, want infeasible (%s)", planner, e.Code, e.Error)
		}
	}
}

// TestSensitivityEndpoint serves the ranked table over a warm model and
// matches an independent recomputation through a fresh evaluator.
// A reply is encoded whole before its header goes out, so it carries
// its Content-Length: a sensitivity table past net/http's 2 KB write
// buffer is not sent chunked.
func TestRepliesCarryContentLength(t *testing.T) {
	doc, _ := planSearchSystem(t)
	_, ts := newTestServer(t, Options{Workers: 1})
	cfg := make([]int, len(doc.Environment.Types))
	query := make([]string, len(cfg))
	for x := range cfg {
		cfg[x], query[x] = 2, "2"
	}
	var warm AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{System: doc, Config: cfg,
		Goals: GoalsJSON{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}}, &warm); status != http.StatusOK {
		t.Fatalf("warmup assess status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/sensitivity?fingerprint=" + warm.Fingerprint + "&config=" + strings.Join(query, ","))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) <= 2048 {
		t.Fatalf("sensitivity status %d with %d bytes, want 200 with a body past 2 KB", resp.StatusCode, len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte body; want its length and no chunking",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

func TestSensitivityEndpoint(t *testing.T) {
	doc, a := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	var warm AssessResponse
	req := AssessRequest{System: doc, Config: []int{2, 2, 3}, Goals: GoalsJSON{MaxWaiting: 0.5}}
	if status := postJSON(t, ts.URL+"/v1/assess", req, &warm); status != http.StatusOK {
		t.Fatalf("warmup assess status = %d", status)
	}
	fp := warm.Fingerprint

	var resp SensitivityResponse
	if status := getJSON(t, ts.URL+"/v1/sensitivity?fingerprint="+fp+"&config=2,2,3", &resp); status != http.StatusOK {
		t.Fatalf("sensitivity status = %d", status)
	}
	if !configsEqual(resp.Config, []int{2, 2, 3}) || len(resp.ServerTypes) != 3 {
		t.Fatalf("response identity: config %v, %d types", resp.Config, len(resp.ServerTypes))
	}
	// 3 server types × 4 continuous kinds + 2 workflows + 3 replica
	// entries.
	if want := 3*4 + 2 + 3; len(resp.Entries) != want {
		t.Fatalf("%d entries, want %d", len(resp.Entries), want)
	}
	if resp.Summary == "" {
		t.Error("empty summary")
	}
	for i := 1; i < len(resp.Entries); i++ {
		if float64(resp.Entries[i].Rank) > float64(resp.Entries[i-1].Rank) {
			t.Fatalf("entries not ranked: %v after %v", resp.Entries[i].Rank, resp.Entries[i-1].Rank)
		}
	}
	for _, e := range resp.Entries {
		if e.Method == "failed" {
			t.Errorf("%s(%s): derivative failed", e.Kind, e.Target)
		}
		if e.Attribution == "" {
			t.Errorf("%s(%s): empty attribution", e.Kind, e.Target)
		}
	}

	// The served table must match a finite-difference recomputation
	// through a completely fresh evaluator.
	ev, err := performability.NewEvaluator(a, performability.Options{Policy: performability.ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sensitivity.Compute(context.Background(), ev, perf.Config{Replicas: []int{2, 2, 3}}, sensitivity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Entries) != len(resp.Entries) {
		t.Fatalf("direct table has %d entries, served %d", len(direct.Entries), len(resp.Entries))
	}
	for i, want := range direct.Entries {
		got := resp.Entries[i]
		if got.Kind != string(want.Kind) || got.Index != want.Index {
			t.Fatalf("entry %d: %s(%d) != %s(%d)", i, got.Kind, got.Index, want.Kind, want.Index)
		}
		assertClose(t, "d_max_waiting "+got.Kind+" "+got.Target, float64(got.DMaxWaiting), want.DMaxWaiting)
		assertClose(t, "d_unavailability "+got.Kind+" "+got.Target, float64(got.DUnavailability), want.DUnavailability)
	}

	// Error paths: unknown fingerprint, missing config with no
	// deployment, malformed config.
	if status := getJSON(t, ts.URL+"/v1/sensitivity?fingerprint=bogus&config=2,2,3", nil); status != http.StatusNotFound {
		t.Errorf("unknown fingerprint: status = %d, want 404", status)
	}
	if status := getJSON(t, ts.URL+"/v1/sensitivity?fingerprint="+fp, nil); status != http.StatusBadRequest {
		t.Errorf("missing config: status = %d, want 400", status)
	}
	if status := getJSON(t, ts.URL+"/v1/sensitivity?fingerprint="+fp+"&config=a,b,c", nil); status != http.StatusBadRequest {
		t.Errorf("malformed config: status = %d, want 400", status)
	}
	if status := getJSON(t, ts.URL+"/v1/sensitivity", nil); status != http.StatusBadRequest {
		t.Errorf("missing fingerprint: status = %d, want 400", status)
	}
}

// assertClose requires |got−want| ≤ 1e-9·max(|got|,|want|,1) — the
// slack covers only the JSON round-trip, not model differences.
func assertClose(t *testing.T, label string, got, want float64) {
	t.Helper()
	scale := math.Max(math.Max(math.Abs(got), math.Abs(want)), 1)
	if math.Abs(got-want) > 1e-9*scale {
		t.Errorf("%s: %v != %v", label, got, want)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
