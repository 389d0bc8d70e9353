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
// ones, and the lifecycle of their runners: ctx is canceled when the
// server shuts down so no job outlives it. now is injectable for the
// expiry tests.
type jobRegistry struct {
	max int
	ttl time.Duration
	now func() time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

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
	ctx, cancel := context.WithCancel(context.Background())
	return &jobRegistry{max: max, ttl: ttl, now: time.Now, ctx: ctx, cancel: cancel, jobs: make(map[string]*job)}
}

// spawn starts a runner under the registry's lifecycle context.
func (g *jobRegistry) spawn(run func(ctx context.Context)) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		run(g.ctx)
	}()
}

// complete records j's terminal state, starts its retention clock and
// counts it: done with resp when err is nil, else canceled (by DELETE
// or shutdown) or failed with err's code.
func (g *jobRegistry) complete(j *job, resp *RecommendResponse, err error) {
	now := g.clock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.finished, j.expires, j.cancel = now, now.Add(g.ttl), nil
	switch {
	case err == nil:
		j.state, j.result = jobDone, resp
		g.done.Add(1)
	case j.cancelWanted || (errors.Is(err, context.Canceled) && g.ctx.Err() != nil):
		j.state, j.errMsg, j.errCode = jobCanceled, err.Error(), "canceled"
		g.canceled.Add(1)
	default:
		j.state, j.errMsg, j.errCode = jobFailed, err.Error(), errorCode(statusForError(err), err)
		g.failed.Add(1)
	}
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

func (g *jobRegistry) stats(resp *StatsResponse) {
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
	resp.Jobs = JobsStatsJSON{
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
	req, sys, planner, ok := s.decodeRecommend(w, r)
	if !ok {
		return
	}
	// The job outlives the request: its document is decoded now, so a
	// malformed one fails the POST and the body is let go.
	if err := sys.parse(); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	j := &job{
		id:        newJobID(),
		tenant:    tenantOf(r, req.Tenant),
		planner:   planner,
		state:     jobQueued,
		submitted: s.jobs.clock(),
	}
	if err := s.jobs.add(j); err != nil {
		s.writeError(w, r, http.StatusTooManyRequests, err)
		return
	}

	s.jobs.spawn(func(ctx context.Context) { s.runJob(ctx, j, req, sys) })
	s.writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		ID:      j.id,
		State:   string(jobQueued),
		Planner: planner,
	})
}

// runJob is the job runner: admission (tenant quota + semaphore),
// model resolution, the planner, and terminal bookkeeping. It applies
// the same deadline as the synchronous endpoint, measured from here,
// not from admission, so a job cannot sit in the queue forever either.
func (s *Server) runJob(ctx context.Context, j *job, req *RecommendRequest, sys system) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctx, stop := s.deadline(ctx, req.TimeoutMillis)
	defer stop()
	j.mu.Lock()
	j.cancel = cancel
	wanted := j.cancelWanted
	j.mu.Unlock()
	if wanted {
		// DELETE raced the spawn: the cancel landed before the runner
		// installed its cancel func.
		cancel()
	}
	defer s.recoverPanic("job", func(err error) { s.jobs.complete(j, nil, err) })

	release, err := s.admission.acquire(ctx, j.tenant, 1)
	if err != nil {
		s.jobs.complete(j, nil, err)
		return
	}
	defer release()
	j.markRunning(s.jobs.clock())

	entry, warm, err := s.resolve(ctx, &sys)
	if err != nil {
		s.jobs.complete(j, nil, err)
		return
	}
	resp, err := s.runRecommend(ctx, entry, warm, j.planner, req, sys.popts)
	s.jobs.complete(j, resp, err)
}

// handleJob reports a job. DELETE first cancels a queued or running
// job or, on a terminal one, discards the retained result, freeing the
// registry slot before the TTL would.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobs.get(id)
	if j == nil {
		s.writeError(w, r, http.StatusNotFound,
			wfmserr.New(wfmserr.CodeInvalidRequest, "server", "no job %q (unknown, expired, or deleted)", id))
		return
	}
	if r.Method == http.MethodDelete && !j.requestCancel() {
		s.jobs.remove(id)
	}
	s.writeJSON(w, http.StatusOK, j.status(s.jobs.clock()))
}
