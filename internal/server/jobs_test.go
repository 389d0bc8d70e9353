package server

// Async job API coverage: the full submit → queued → running → done
// lifecycle with result parity against the synchronous endpoint,
// cancellation, TTL expiry of retained results, registry bounds, and
// the submit-time validation regressions.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"performa/internal/wfmserr"
)

// submitJob posts to /v1/jobs/recommend and decodes the 202 envelope
// (postJSON only decodes 200s).
func submitJob(t testing.TB, url string, body RecommendRequest) (int, JobSubmitResponse) {
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
	var sub JobSubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("decoding submit response: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, sub
}

// deleteJob issues DELETE /v1/jobs/{id} and returns the status code.
func deleteJob(t testing.TB, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// pollJob polls GET /v1/jobs/{id} until the predicate holds or the
// deadline expires, returning the last status snapshot.
func pollJob(t testing.TB, url string, ok func(JobStatusResponse) bool) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatusResponse
	for time.Now().Before(deadline) {
		st = JobStatusResponse{}
		if status := getJSON(t, url, &st); status != http.StatusOK {
			t.Fatalf("job poll status = %d", status)
		}
		if ok(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job never reached the awaited state; last: %+v", st)
	return st
}

// TestJobLifecycleMatchesSync drives a job through queued → running →
// done and requires the retained result to equal the synchronous
// /v1/recommend answer: same plan, same cost, bit-identical assessment.
func TestJobLifecycleMatchesSync(t *testing.T) {
	doc, _ := paperSystem(t)
	s, ts := newTestServer(t, Options{Workers: 2})

	// Hold the whole worker budget so the submitted job is observably
	// queued before it may run.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.admission.sem.Acquire(ctx, s.admission.workers); err != nil {
		t.Fatal(err)
	}

	goals := GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5}
	status, sub := submitJob(t, ts.URL+"/v1/jobs/recommend", RecommendRequest{
		System: doc, Planner: "greedy", Goals: goals,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if sub.ID == "" || sub.State != string(jobQueued) || sub.Planner != "greedy" {
		t.Fatalf("submit response = %+v", sub)
	}
	jobURL := ts.URL + "/v1/jobs/" + sub.ID

	var st JobStatusResponse
	if status := getJSON(t, jobURL, &st); status != http.StatusOK {
		t.Fatalf("poll status = %d", status)
	}
	if st.State != string(jobQueued) {
		t.Fatalf("state = %q while the semaphore is held, want queued", st.State)
	}

	s.admission.sem.Release(s.admission.workers)
	done := pollJob(t, jobURL, func(st JobStatusResponse) bool { return jobState(st.State).terminal() })
	if done.State != string(jobDone) {
		t.Fatalf("terminal state = %q (%s), want done", done.State, done.Error)
	}
	if done.Result == nil {
		t.Fatal("done job carries no result")
	}
	if done.ExpiresInMS <= 0 {
		t.Errorf("done job reports no retention window: %+v", done.ExpiresInMS)
	}

	var sync RecommendResponse
	if status := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
		System: doc, Planner: "greedy", Goals: goals,
	}, &sync); status != http.StatusOK {
		t.Fatalf("sync recommend status = %d", status)
	}
	if !configsEqual(done.Result.Config, sync.Config) {
		t.Errorf("job config %v != sync config %v", done.Result.Config, sync.Config)
	}
	if done.Result.Cost != sync.Cost || done.Result.Evaluations != sync.Evaluations {
		t.Errorf("job cost/evals %d/%d != sync %d/%d",
			done.Result.Cost, done.Result.Evaluations, sync.Cost, sync.Evaluations)
	}
	if mustJSON(t, done.Result.Assessment) != mustJSON(t, sync.Assessment) {
		t.Errorf("job assessment differs from sync:\n%s\n%s",
			mustJSON(t, done.Result.Assessment), mustJSON(t, sync.Assessment))
	}

	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 {
		t.Errorf("job stats = %+v, want submitted=1 done=1", stats.Jobs)
	}
}

// TestJobCancelWhileQueued cancels a job stuck behind the semaphore and
// requires the canceled terminal state, not failed.
func TestJobCancelWhileQueued(t *testing.T) {
	doc, _ := paperSystem(t)
	s, ts := newTestServer(t, Options{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.admission.sem.Acquire(ctx, s.admission.workers); err != nil {
		t.Fatal(err)
	}
	defer s.admission.sem.Release(s.admission.workers)

	status, sub := submitJob(t, ts.URL+"/v1/jobs/recommend", RecommendRequest{
		System: doc, Goals: GoalsJSON{MaxUnavailability: 1e-5},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	jobURL := ts.URL + "/v1/jobs/" + sub.ID
	if status := deleteJob(t, jobURL); status != http.StatusOK {
		t.Fatalf("delete status = %d", status)
	}
	st := pollJob(t, jobURL, func(st JobStatusResponse) bool { return jobState(st.State).terminal() })
	if st.State != string(jobCanceled) || st.Code != "canceled" {
		t.Fatalf("state/code = %q/%q after DELETE, want canceled/canceled (%s)", st.State, st.Code, st.Error)
	}
}

// TestJobTTLExpiry advances the registry clock past the retention TTL
// and requires the finished job to vanish (404) and be counted expired.
func TestJobTTLExpiry(t *testing.T) {
	doc, _ := paperSystem(t)
	ttl := 250 * time.Millisecond
	s, ts := newTestServer(t, Options{Workers: 2, JobTTL: ttl})

	status, sub := submitJob(t, ts.URL+"/v1/jobs/recommend", RecommendRequest{
		System: doc, Goals: GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	jobURL := ts.URL + "/v1/jobs/" + sub.ID
	st := pollJob(t, jobURL, func(st JobStatusResponse) bool { return jobState(st.State).terminal() })
	if st.State != string(jobDone) {
		t.Fatalf("terminal state = %q (%s)", st.State, st.Error)
	}

	// Advance the injectable clock past the retention window.
	s.jobs.mu.Lock()
	s.jobs.now = func() time.Time { return time.Now().Add(ttl + time.Minute) }
	s.jobs.mu.Unlock()

	if status := getJSON(t, jobURL, nil); status != http.StatusNotFound {
		t.Fatalf("expired job poll status = %d, want 404", status)
	}
	var stats StatsResponse
	if status := getJSON(t, ts.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if stats.Jobs.Expired == 0 {
		t.Errorf("job stats count no expiries: %+v", stats.Jobs)
	}
	if stats.Jobs.Resident != 0 {
		t.Errorf("expired job still resident: %+v", stats.Jobs)
	}
}

// TestJobRegistryBound fills the registry and requires the overflow
// submission to be refused with a typed 429, with DELETE freeing the
// slot.
func TestJobRegistryBound(t *testing.T) {
	doc, _ := paperSystem(t)
	s, ts := newTestServer(t, Options{Workers: 2, MaxJobs: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.admission.sem.Acquire(ctx, s.admission.workers); err != nil {
		t.Fatal(err)
	}

	body := RecommendRequest{System: doc, Goals: GoalsJSON{MaxWaiting: 0.005, MaxUnavailability: 1e-5}}
	firstStatus, first := submitJob(t, ts.URL+"/v1/jobs/recommend", body)
	if firstStatus != http.StatusAccepted {
		t.Fatalf("first submit status = %d", firstStatus)
	}
	status, e := postRaw(t, ts.URL+"/v1/jobs/recommend", mustJSON(t, body))
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", status)
	}
	if e.Code != string(wfmserr.CodeBudgetExceeded) {
		t.Errorf("overflow code = %q, want %q", e.Code, wfmserr.CodeBudgetExceeded)
	}

	s.admission.sem.Release(s.admission.workers)
	jobURL := ts.URL + "/v1/jobs/" + first.ID
	pollJob(t, jobURL, func(st JobStatusResponse) bool { return jobState(st.State).terminal() })
	// DELETE on a terminal job discards the retained result, freeing the
	// registry slot before the TTL would.
	if status := deleteJob(t, jobURL); status != http.StatusOK {
		t.Fatalf("delete status = %d", status)
	}
	thirdStatus, third := submitJob(t, ts.URL+"/v1/jobs/recommend", body)
	if thirdStatus != http.StatusAccepted {
		t.Fatalf("post-delete submit status = %d, want 202", thirdStatus)
	}
	pollJob(t, ts.URL+"/v1/jobs/"+third.ID, func(st JobStatusResponse) bool { return jobState(st.State).terminal() })
}

// TestJobDeadlineWhileQueued submits a job whose timeout expires before
// admission: it must fail with deadline_exceeded, not hang.
func TestJobDeadlineWhileQueued(t *testing.T) {
	doc, _ := paperSystem(t)
	s, ts := newTestServer(t, Options{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.admission.sem.Acquire(ctx, s.admission.workers); err != nil {
		t.Fatal(err)
	}
	defer s.admission.sem.Release(s.admission.workers)

	status, sub := submitJob(t, ts.URL+"/v1/jobs/recommend", RecommendRequest{
		System: doc, Goals: GoalsJSON{MaxUnavailability: 1e-5}, TimeoutMillis: 30,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	st := pollJob(t, ts.URL+"/v1/jobs/"+sub.ID, func(st JobStatusResponse) bool { return jobState(st.State).terminal() })
	if st.State != string(jobFailed) || st.Code != "deadline_exceeded" {
		t.Fatalf("state/code = %q/%q, want failed/deadline_exceeded (%s)", st.State, st.Code, st.Error)
	}
}

// TestJobValidationAndUnknownIDs covers submit-time validation (the
// negative-timeout regression and unknown planners fail the POST, not
// the job) and 404s on unknown job ids.
func TestJobValidationAndUnknownIDs(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})

	status, e := postRaw(t, ts.URL+"/v1/jobs/recommend", mustJSON(t, RecommendRequest{
		System: doc, Goals: GoalsJSON{MaxUnavailability: 1e-5}, TimeoutMillis: -7,
	}))
	if status != http.StatusUnprocessableEntity || e.Code != string(wfmserr.CodeInvalidRequest) {
		t.Errorf("negative timeout: status/code = %d/%q, want 422/%s", status, e.Code, wfmserr.CodeInvalidRequest)
	}

	status, e = postRaw(t, ts.URL+"/v1/jobs/recommend", mustJSON(t, RecommendRequest{
		System: doc, Planner: "psychic", Goals: GoalsJSON{MaxUnavailability: 1e-5},
	}))
	if status != http.StatusBadRequest || e.Code != string(wfmserr.CodeInvalidRequest) {
		t.Errorf("unknown planner: status/code = %d/%q, want 400/%s", status, e.Code, wfmserr.CodeInvalidRequest)
	}

	if status := getJSON(t, ts.URL+"/v1/jobs/job-doesnotexist", nil); status != http.StatusNotFound {
		t.Errorf("unknown job GET status = %d, want 404", status)
	}
	if status := deleteJob(t, ts.URL+"/v1/jobs/job-doesnotexist"); status != http.StatusNotFound {
		t.Errorf("unknown job DELETE status = %d, want 404", status)
	}

	var stats StatsResponse
	if st := getJSON(t, ts.URL+"/v1/stats", &stats); st != http.StatusOK {
		t.Fatalf("stats status = %d", st)
	}
	if stats.Jobs.Submitted != 0 {
		t.Errorf("rejected submissions must not enter the registry: %+v", stats.Jobs)
	}
}
