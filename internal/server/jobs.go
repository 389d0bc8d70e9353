package server

// Async job serving: POST /v1/jobs/recommend accepts the same body as
// /v1/recommend but returns a job id immediately instead of holding the
// HTTP worker for the whole search. A runner goroutine queues on the
// admission semaphore (state "queued"), runs the planner (state
// "running"), and parks the result in a TTL'd registry for GET
// /v1/jobs/{id} polling; DELETE cancels an in-flight job or discards a
// retained result. Long branch-and-bound runs therefore never pin an
// HTTP connection, and a load balancer in front of wfmsd can time out
// aggressively without killing the search.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/performability"
	"performa/internal/wfmserr"
)

// jobState is the lifecycle phase of an async job.
type jobState string

const (
	jobQueued   jobState = "queued"   // waiting for admission tokens
	jobRunning  jobState = "running"  // planner in flight
	jobDone     jobState = "done"     // result retained until TTL
	jobFailed   jobState = "failed"   // error retained until TTL
	jobCanceled jobState = "canceled" // canceled by DELETE or shutdown
)

func (st jobState) terminal() bool {
	return st == jobDone || st == jobFailed || st == jobCanceled
}

// job is one async recommendation. Mutable fields are guarded by mu;
// the runner goroutine is the only writer of result/errMsg, the HTTP
// handlers the only callers of requestCancel.
type job struct {
	id      string
	tenant  string
	planner string

	mu           sync.Mutex
	state        jobState
	submitted    time.Time
	started      time.Time // zero until running
	finished     time.Time // zero until terminal
	expires      time.Time // zero until terminal
	result       *RecommendResponse
	errMsg       string
	errCode      string
	cancel       context.CancelFunc
	cancelWanted bool
}

// markRunning flips queued → running unless a cancel already landed.
func (j *job) markRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == jobQueued {
		j.state = jobRunning
		j.started = now
	}
}

// finish records the terminal state and starts the retention clock.
func (j *job) finish(state jobState, now, expires time.Time, result *RecommendResponse, errMsg, errCode string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state = state
	j.finished = now
	j.expires = expires
	j.result = result
	j.errMsg = errMsg
	j.errCode = errCode
	j.cancel = nil
}

// requestCancel asks the runner to stop, returning whether the job was
// still cancelable.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	cancel := j.cancel
	terminal := j.state.terminal()
	if !terminal {
		j.cancelWanted = true
	}
	j.mu.Unlock()
	if terminal {
		return false
	}
	if cancel != nil {
		cancel()
	}
	return true
}

// canceledWanted reports whether a DELETE asked this job to stop.
func (j *job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelWanted
}

// status snapshots the job for the wire.
func (j *job) status(now time.Time) JobStatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := JobStatusResponse{
		ID:      j.id,
		State:   string(j.state),
		Planner: j.planner,
		Tenant:  j.tenant,
	}
	switch {
	case j.state == jobQueued:
		resp.QueuedMS = Float(now.Sub(j.submitted).Seconds() * 1e3)
	case !j.started.IsZero():
		resp.QueuedMS = Float(j.started.Sub(j.submitted).Seconds() * 1e3)
	default:
		// Canceled straight out of the queue: the whole lifetime was
		// queueing.
		resp.QueuedMS = Float(j.finished.Sub(j.submitted).Seconds() * 1e3)
	}
	if j.state == jobRunning {
		resp.RunningMS = Float(now.Sub(j.started).Seconds() * 1e3)
	} else if !j.started.IsZero() && !j.finished.IsZero() {
		resp.RunningMS = Float(j.finished.Sub(j.started).Seconds() * 1e3)
	}
	if j.state.terminal() {
		resp.Result = j.result
		resp.Error = j.errMsg
		resp.Code = j.errCode
		if ttl := j.expires.Sub(now); ttl > 0 {
			resp.ExpiresInMS = Float(ttl.Seconds() * 1e3)
		}
	}
	return resp
}

// jobRegistry holds the resident jobs with TTL'd retention of terminal
// ones. now is injectable for the expiry tests.
type jobRegistry struct {
	max int
	ttl time.Duration
	now func() time.Time

	mu   sync.Mutex
	jobs map[string]*job

	submitted atomic.Uint64
	done      atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	expired   atomic.Uint64
}

func newJobRegistry(max int, ttl time.Duration) *jobRegistry {
	if max < 1 {
		max = 1
	}
	return &jobRegistry{max: max, ttl: ttl, now: time.Now, jobs: make(map[string]*job)}
}

// clock reads the registry's injectable clock under the lock, so the
// TTL tests may advance it while handlers and runners are live.
func (g *jobRegistry) clock() time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now()
}

// sweepLocked drops terminal jobs whose retention expired. Callers must
// hold g.mu.
func (g *jobRegistry) sweepLocked(now time.Time) {
	for id, j := range g.jobs {
		j.mu.Lock()
		gone := j.state.terminal() && now.After(j.expires)
		j.mu.Unlock()
		if gone {
			delete(g.jobs, id)
			g.expired.Add(1)
		}
	}
}

// add registers a freshly submitted job, enforcing the residency bound.
func (g *jobRegistry) add(j *job) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sweepLocked(g.now())
	if len(g.jobs) >= g.max {
		return wfmserr.New(wfmserr.CodeBudgetExceeded, "server",
			"job registry full (%d jobs resident); retry later or DELETE finished jobs", g.max).
			With("max_jobs", g.max)
	}
	g.jobs[j.id] = j
	g.submitted.Add(1)
	return nil
}

// get returns the job if resident and unexpired.
func (g *jobRegistry) get(id string) *job {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sweepLocked(g.now())
	return g.jobs[id]
}

// remove drops a job from the registry (DELETE of a terminal job).
func (g *jobRegistry) remove(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.jobs, id)
}

// stats snapshots the registry for /v1/stats and /metrics.
func (g *jobRegistry) stats() JobsStatsJSON {
	g.mu.Lock()
	g.sweepLocked(g.now())
	byState := make(map[string]int)
	for _, j := range g.jobs {
		j.mu.Lock()
		byState[string(j.state)]++
		j.mu.Unlock()
	}
	resident := len(g.jobs)
	g.mu.Unlock()
	return JobsStatsJSON{
		Resident:  resident,
		ByState:   byState,
		Submitted: g.submitted.Load(),
		Done:      g.done.Load(),
		Failed:    g.failed.Load(),
		Canceled:  g.canceled.Load(),
		Expired:   g.expired.Load(),
	}
}

// newJobID mints an unguessable job identifier.
func newJobID() string {
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand never fails on the supported platforms; if it
		// somehow does, an error-derived id would collide, so panic into
		// the containment middleware.
		panic("server: crypto/rand failed: " + err.Error())
	}
	return "job-" + hex.EncodeToString(buf[:])
}

// handleJobSubmit validates the request envelope synchronously (a bad
// planner or negative timeout fails the POST, not the job) and hands
// the search to a runner goroutine.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if err := s.decodeBody(w, r, &req, &req.System); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	popts, err := req.Model.toOptions()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := rejectNetTurnaround(req.Model); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	planner, err := validatePlanner(req.Planner)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := validateTimeout(req.TimeoutMillis); err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	j := &job{
		id:        newJobID(),
		tenant:    s.tenantOf(r, req.Tenant),
		planner:   planner,
		state:     jobQueued,
		submitted: s.jobs.clock(),
	}
	if err := s.jobs.add(j); err != nil {
		s.writeError(w, r, http.StatusTooManyRequests, err)
		return
	}

	s.jobsWG.Add(1)
	go s.runJob(j, &req, popts)
	s.writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		ID:      j.id,
		State:   string(jobQueued),
		Planner: planner,
	})
}

// runJob is the job runner: admission (tenant quota + semaphore),
// model resolution, the planner, and terminal bookkeeping. It applies
// the same deadline policy as the synchronous endpoint — the request's
// timeout_ms, else the server default — measured from here, not from
// admission, so a job cannot sit in the queue forever either.
func (s *Server) runJob(j *job, req *RecommendRequest, popts performability.Options) {
	defer s.jobsWG.Done()
	ctx, cancel := context.WithCancel(s.jobsCtx)
	timeout := s.opts.RequestTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	wanted := j.cancelWanted
	j.mu.Unlock()
	if wanted {
		// DELETE raced the spawn: the cancel landed before the runner
		// installed its cancel func.
		cancel()
	}

	fail := func(err error) {
		now := s.jobs.clock()
		state := jobFailed
		code := errorCode(statusForError(err), err)
		if j.cancelRequested() || (errors.Is(err, context.Canceled) && s.jobsCtx.Err() != nil) {
			state = jobCanceled
			code = "canceled"
		}
		j.finish(state, now, now.Add(s.jobs.ttl), nil, err.Error(), code)
		if state == jobCanceled {
			s.jobs.canceled.Add(1)
		} else {
			s.jobs.failed.Add(1)
		}
	}

	release, err := s.admitTenant(ctx, j.tenant, s.perRequest)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	j.markRunning(s.jobs.clock())

	entry, warm, err := s.resolveEntry(ctx, &req.System, popts)
	if err != nil {
		fail(err)
		return
	}
	resp, err := s.runRecommend(ctx, entry, warm, j.planner, req, popts, s.perRequest)
	if err != nil {
		fail(err)
		return
	}
	now := s.jobs.clock()
	j.finish(jobDone, now, now.Add(s.jobs.ttl), resp, "", "")
	s.jobs.done.Add(1)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobs.get(id)
	if j == nil {
		s.writeError(w, r, http.StatusNotFound,
			wfmserr.New(wfmserr.CodeInvalidRequest, "server", "no job %q (unknown, expired, or deleted)", id))
		return
	}
	s.writeJSON(w, http.StatusOK, j.status(s.jobs.clock()))
}

// handleJobDelete cancels a queued or running job; on a terminal job it
// discards the retained result instead, freeing the registry slot
// before the TTL would.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobs.get(id)
	if j == nil {
		s.writeError(w, r, http.StatusNotFound,
			wfmserr.New(wfmserr.CodeInvalidRequest, "server", "no job %q (unknown, expired, or deleted)", id))
		return
	}
	if !j.requestCancel() {
		// Already terminal: DELETE means "discard the result now".
		s.jobs.remove(id)
	}
	s.writeJSON(w, http.StatusOK, j.status(s.jobs.clock()))
}
