// Package server exposes the configuration-advisory pipeline as a
// long-running HTTP/JSON service — the paper's Section 7 tool run as a
// daemon instead of a one-shot CLI. The endpoints are
//
//	POST /v1/assess           evaluate a configuration Y against goals
//	POST /v1/recommend        run a planner (greedy/exhaustive/bnb)
//	POST /v1/assess-batch     evaluate many items, amortizing model builds
//	POST /v1/recommend-batch  plan many items, amortizing model builds
//	POST /v1/jobs/recommend   submit an async planner job → job id
//	GET  /v1/jobs/{id}        poll a job (queued/running/done/failed)
//	DELETE /v1/jobs/{id}      cancel a job, or discard a finished result
//	POST /v1/calibrate        ingest audit-trail records, re-derive the models
//	POST /v1/events           stream audit records, score drift against the model
//	GET  /v1/drift            drift state of every ingestion stream
//	GET  /v1/sensitivity      ranked finite-difference sensitivity table
//	POST /v1/deployments      register the running configuration for reconfiguration
//	GET  /v1/deployments      list registered deployments
//	GET  /v1/advisories       drift-triggered reconfiguration advisories
//	GET  /v1/stats            cache hit rates and per-endpoint latency
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness
//
// Systems ride in requests as wfjson documents. The server keys warm
// models (the built analysis plus a performability evaluator holding the
// availability marginals) by the system's fingerprint in a bounded LRU,
// so repeated what-if queries over the same system skip the model build
// entirely, and admits planner work through a weighted semaphore of
// Options.Workers tokens, one per concurrent planner run, so concurrent
// recommendations cannot oversubscribe the cores. Request contexts
// thread through the planners: a client disconnect or timeout cancels
// the in-flight search promptly, discarding partial results.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/audit"
	"performa/internal/config"
	"performa/internal/linalg"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/stream"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
)

// statusClientClosedRequest is the de-facto standard code (nginx's 499)
// for a client that went away mid-request; it only shows up in logs and
// metrics, never on the wire.
const statusClientClosedRequest = 499

// Options configures the service.
type Options struct {
	// Workers is how many planner runs may execute concurrently across
	// all requests (each run is sequential and holds one admission
	// token); 0 means runtime.NumCPU().
	Workers int
	// CacheSize bounds the warm-model LRU (entries); 0 means 32.
	CacheSize int
	// MaxBodyBytes bounds request bodies; 0 means 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds each assess/recommend/calibrate request
	// (individual recommendations may shorten it via timeout_ms);
	// 0 means no server-side deadline.
	RequestTimeout time.Duration
	// Logger receives one structured line per request; nil means
	// slog.Default().
	Logger *slog.Logger
	// Drift sets the relative-change thresholds at which streamed
	// estimates invalidate a warm model; zero fields take
	// stream.DefaultThresholds.
	Drift stream.Thresholds
	// StreamHalfLife enables exponential decay on the ingestion
	// estimators (trail-time units); 0 keeps all history.
	StreamHalfLife float64
	// MaxStreams bounds the per-system ingestion streams (LRU);
	// 0 means 64.
	MaxStreams int
	// MaxBatchItems bounds the item count of one batch request;
	// 0 means 256.
	MaxBatchItems int
	// JobTTL is how long a finished async job's result stays pollable;
	// 0 means 15 minutes.
	JobTTL time.Duration
	// MaxJobs bounds the resident (queued + running + retained) async
	// jobs; 0 means 1024.
	MaxJobs int
	// TenantBudget is the per-tenant cap on concurrent planner runs
	// (admission tokens; a batch holds one per item it runs at once).
	// 0 disables tenant quotas.
	TenantBudget int
	// Reconfigure starts the reconfiguration controller: drift
	// crossings of registered deployments (POST /v1/deployments)
	// trigger warm-started re-plans whose outcomes are published on
	// /v1/advisories. Off, the endpoints still serve but no advisories
	// are produced.
	Reconfigure bool
}

// Server is the advisory service. Create with New, mount via Handler,
// stop with Shutdown.
type Server struct {
	opts      Options
	workers   int // resolved budget: concurrent planner runs
	admission *semaphore
	models    *modelCache
	log       *slog.Logger
	mux       *http.ServeMux
	start     time.Time

	closed   atomic.Bool
	inflight sync.WaitGroup
	reqID    atomic.Uint64

	endpoints map[string]*endpointMetrics

	// Online calibration: per-system ingestion streams and the drift
	// thresholds they are scored under.
	streams            *streamRegistry
	driftThresholds    stream.Thresholds
	eventsIngested     atomic.Uint64
	eventBatches       atomic.Uint64
	driftInvalidations atomic.Uint64

	// panics counts panics recovered by recoverPanic; errMu/errCodes
	// count error responses by code.
	panics   atomic.Uint64
	errMu    sync.Mutex
	errCodes map[string]uint64

	// clampedStages counts stage-clamped subworkflow collapses across
	// cold model builds (see noteClamped).
	clampedStages atomic.Uint64

	// Batch + async serving: the per-tenant admission quotas, the async
	// job registry, and the lifecycle context job runners inherit
	// (canceled when the server shuts down so no job outlives it).
	quotas        *tenantQuotas
	jobs          *jobRegistry
	jobsCtx       context.Context
	jobsCancel    context.CancelFunc
	jobsWG        sync.WaitGroup
	maxBatchItems int
	batchItems    atomic.Uint64
	batchBuilds   atomic.Uint64

	// Reconfiguration controller: registered deployments, the advisory
	// log, the drift-event queue feeding the controller goroutine, and
	// its lifecycle. ctrlCancel is invoked at Shutdown start — before
	// the in-flight waits — so a mid-re-plan controller unwinds
	// promptly instead of deadlocking the drain.
	deployments     *deploymentRegistry
	advisories      *advisoryLog
	driftCh         chan driftEvent
	driftDropped    atomic.Uint64
	ctrlCtx         context.Context
	ctrlCancel      context.CancelFunc
	ctrlWG          sync.WaitGroup
	reconfigAdvised atomic.Uint64
	reconfigFailed  atomic.Uint64
	reconfigLatency *histogram
	lastAdvisoryNS  atomic.Int64

	// noBodySplit sends every body through encoding/json whole. Only
	// tests set it, to hold decodeBody's two routes against each other.
	noBodySplit bool
}

// New builds the service.
func New(opts Options) *Server {
	heapFloorOnce.Do(holdHeapFloor)
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 32
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	maxStreams := opts.MaxStreams
	if maxStreams == 0 {
		maxStreams = 64
	}
	maxBatch := opts.MaxBatchItems
	if maxBatch == 0 {
		maxBatch = 256
	}
	jobTTL := opts.JobTTL
	if jobTTL == 0 {
		jobTTL = 15 * time.Minute
	}
	maxJobs := opts.MaxJobs
	if maxJobs == 0 {
		maxJobs = 1024
	}
	jobsCtx, jobsCancel := context.WithCancel(context.Background())
	ctrlCtx, ctrlCancel := context.WithCancel(context.Background())
	s := &Server{
		opts:            opts,
		workers:         workers,
		admission:       newSemaphore(workers),
		models:          newModelCache(cacheSize),
		log:             logger,
		mux:             http.NewServeMux(),
		start:           time.Now(),
		endpoints:       make(map[string]*endpointMetrics),
		errCodes:        make(map[string]uint64),
		streams:         newStreamRegistry(maxStreams),
		driftThresholds: opts.Drift.WithDefaults(),
		quotas:          newTenantQuotas(opts.TenantBudget),
		jobs:            newJobRegistry(maxJobs, jobTTL),
		jobsCtx:         jobsCtx,
		jobsCancel:      jobsCancel,
		maxBatchItems:   maxBatch,
		deployments:     newDeploymentRegistry(),
		advisories:      newAdvisoryLog(),
		ctrlCtx:         ctrlCtx,
		ctrlCancel:      ctrlCancel,
		reconfigLatency: newHistogram(),
	}
	s.route("POST /v1/assess", s.handleAssess)
	s.route("POST /v1/recommend", s.handleRecommend)
	s.route("POST /v1/assess-batch", s.handleAssessBatch)
	s.route("POST /v1/recommend-batch", s.handleRecommendBatch)
	s.route("POST /v1/jobs/recommend", s.handleJobSubmit)
	s.route("GET /v1/jobs/{id}", s.handleJobGet)
	s.route("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.route("POST /v1/calibrate", s.handleCalibrate)
	s.route("POST /v1/events", s.handleEvents)
	s.route("GET /v1/drift", s.handleDrift)
	s.route("GET /v1/sensitivity", s.handleSensitivity)
	s.route("POST /v1/deployments", s.handleDeploymentPost)
	s.route("GET /v1/deployments", s.handleDeploymentList)
	s.route("GET /v1/advisories", s.handleAdvisories)
	s.route("GET /v1/stats", s.handleStats)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /healthz", s.handleHealthz)
	if opts.Reconfigure {
		s.driftCh = make(chan driftEvent, 64)
		s.ctrlWG.Add(1)
		go s.controllerLoop()
	}
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown refuses new requests (503) and waits for the in-flight ones
// — HTTP requests and async job runners both — to drain, or for ctx to
// expire, in which case the job lifecycle context is canceled so
// still-running searches unwind promptly. Callers cancel in-flight HTTP
// work by shutting down the enclosing http.Server, whose base context
// closes the request contexts.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	// Stop the reconfiguration controller before waiting on the drains:
	// its context must close first so a mid-re-plan controller (which
	// holds admission tokens like any client) unwinds promptly rather
	// than racing the shutdown deadline.
	s.ctrlCancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.jobsWG.Wait()
		s.ctrlWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.jobsCancel()
		return nil
	case <-ctx.Done():
		s.jobsCancel()
		return ctx.Err()
	}
}

// route registers a handler wrapped with draining, metrics, and
// per-request structured logging.
func (s *Server) route(pattern string, h func(http.ResponseWriter, *http.Request)) {
	endpoint := pattern[strings.LastIndex(pattern, " ")+1:]
	// Methods sharing a path pattern (GET and DELETE on /v1/jobs/{id})
	// share one metrics series keyed by the path.
	m, ok := s.endpoints[endpoint]
	if !ok {
		m = newEndpointMetrics(endpoint)
		s.endpoints[endpoint] = m
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if s.closed.Load() {
			w.Header().Set("Connection", "close")
			s.writeError(w, r, http.StatusServiceUnavailable, errors.New("server is shutting down"))
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		m.inflight.Add(1)
		defer m.inflight.Add(-1)

		began := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		id := s.reqID.Add(1)
		func() {
			defer s.recoverPanic(r.URL.Path, func(err error) {
				if !rec.written {
					s.writeError(rec, r, http.StatusInternalServerError, err)
				}
			})
			h(rec, r.WithContext(context.WithValue(r.Context(), ctxKeyReqID{}, id)))
		}()
		elapsed := time.Since(began)
		m.observe(rec.status, elapsed)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Uint64("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

type ctxKeyReqID struct{}

// recoverPanic is deferred at the root of every goroutine that runs
// planners or evaluators: the handler middleware, batch item workers,
// async jobs and the reconfiguration controller. A residual panic (one
// the typed-error routes did not intercept) must cost one request,
// item, job or re-plan, never the process. It is counted, logged with
// its stack for the bug report, and handed to fail as a typed internal
// error.
func (s *Server) recoverPanic(where string, fail func(error)) {
	p := recover()
	if p == nil {
		return
	}
	s.panics.Add(1)
	s.log.LogAttrs(context.Background(), slog.LevelError, "panic",
		slog.String("in", where),
		slog.String("panic", fmt.Sprint(p)),
		slog.String("stack", string(debug.Stack())),
	)
	fail(wfmserr.New(wfmserr.CodeInternal, "server", "internal error in %s (panic recovered; this is a bug)", where))
}

// statusRecorder captures the response status for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	written bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.written {
		r.status = code
		r.written = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.written = true
	return r.ResponseWriter.Write(p)
}

// validateTimeout rejects a negative timeout_ms with a typed validation
// error. Zero stays valid (inherit the server default); the old code
// silently fell through `> 0` into the default, which masked client
// bugs that meant "fail fast" and got a 60-second budget instead.
func validateTimeout(timeoutMS int64) error {
	if timeoutMS < 0 {
		return wfmserr.New(wfmserr.CodeInvalidRequest, "server",
			"timeout_ms must be non-negative, got %d", timeoutMS)
	}
	return nil
}

// requestContext applies the effective deadline: the per-request
// timeout_ms when given, else the server default.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	timeout := s.opts.RequestTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// admit blocks on the admission semaphore for one planner run's token.
// The returned release func is nil iff admit failed.
func (s *Server) admit(ctx context.Context) (func(), error) {
	if err := s.admission.Acquire(ctx, 1); err != nil {
		return nil, err
	}
	return func() { s.admission.Release(1) }, nil
}

// admitTenant layers the tenant quota under the admission semaphore:
// the tenant's token budget is debited first (fail-fast, typed
// budget_exceeded — quota breaches must surface immediately, not queue
// until the deadline turns them into 504s), then the weighted FIFO
// semaphore is acquired as usual. The release func returns both.
func (s *Server) admitTenant(ctx context.Context, tenant string, n int) (func(), error) {
	if n < 1 {
		n = 1
	}
	if n > s.workers {
		n = s.workers
	}
	releaseQuota, err := s.quotas.acquire(tenant, n)
	if err != nil {
		return nil, err
	}
	if err := s.admission.Acquire(ctx, n); err != nil {
		releaseQuota()
		return nil, err
	}
	return func() {
		s.admission.Release(n)
		releaseQuota()
	}, nil
}

// tenantOf resolves the request's tenant: the body field when set, else
// the X-Tenant header, else the catch-all default tenant.
func (s *Server) tenantOf(r *http.Request, field string) string {
	if t := strings.TrimSpace(field); t != "" {
		return t
	}
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return defaultTenant
}

// quotaStatus is the HTTP status of a tenant-quota rejection.
func quotaStatus(err error) int {
	if errors.Is(err, wfmserr.ErrBudgetExceeded) {
		return http.StatusTooManyRequests
	}
	return statusForError(err)
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	var req AssessRequest
	if err := s.decodeBody(w, r, &req, &req.System); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	popts, err := req.Model.toOptions()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	release, err := s.admitTenant(ctx, s.tenantOf(r, req.Tenant), 1)
	if err != nil {
		s.writeError(w, r, quotaStatus(err), err)
		return
	}
	defer release()

	entry, warm, err := s.resolveEntry(ctx, &req.System, popts)
	if err != nil {
		s.writeError(w, r, badRequestOr(err), err)
		return
	}
	as, err := config.AssessContext(ctx, entry.analysis, perf.Config{Replicas: req.Config}, req.Goals.toGoals(), config.Options{
		Performability: popts,
		Evaluator:      entry.ev,
	})
	if err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	resp := AssessResponse{
		Fingerprint: entry.fingerprint,
		ServerTypes: typeNames(entry),
		Assessment:  assessmentJSON(as),
		CacheWarm:   warm,
	}
	if req.Model.netRequested() {
		nt, err := entry.netTurnarounds()
		if err != nil {
			s.writeError(w, r, statusForError(err), err)
			return
		}
		resp.Turnaround = nt
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// validatePlanner canonicalizes a planner name ("" means greedy),
// rejecting unknown ones with a typed validation error.
func validatePlanner(name string) (string, error) {
	switch name {
	case "":
		return "greedy", nil
	case "greedy", "exhaustive":
		return name, nil
	case "bnb", "branch-and-bound":
		return "bnb", nil
	}
	return "", wfmserr.New(wfmserr.CodeInvalidRequest, "server",
		"unknown planner %q (want greedy, exhaustive, or bnb)", name)
}

// runRecommend executes one planner search against a resolved warm
// entry and assembles the wire response — the shared engine behind
// /v1/recommend, /v1/recommend-batch items, and async jobs. planner
// must already be canonical (validatePlanner); admission tokens are the
// caller's concern.
func (s *Server) runRecommend(ctx context.Context, entry *modelEntry, warm bool, planner string, req *RecommendRequest, popts performability.Options) (*RecommendResponse, error) {
	opts := config.Options{
		Performability: popts,
		Evaluator:      entry.ev,
	}
	goals := req.Goals.toGoals()
	cons := req.Constraints.toConstraints()

	began := time.Now()
	var rec *config.Recommendation
	var err error
	switch planner {
	case "greedy":
		rec, err = config.GreedyContext(ctx, entry.analysis, goals, cons, opts)
	case "exhaustive":
		rec, err = config.ExhaustiveContext(ctx, entry.analysis, goals, cons, opts)
	case "bnb":
		rec, err = config.BranchAndBoundContext(ctx, entry.analysis, goals, cons, opts)
	default:
		return nil, wfmserr.New(wfmserr.CodeInternal, "server", "unvalidated planner %q reached runRecommend", planner)
	}
	if err != nil {
		return nil, err
	}
	resp := &RecommendResponse{
		Fingerprint: entry.fingerprint,
		Planner:     planner,
		ServerTypes: typeNames(entry),
		Config:      rec.Config.Replicas,
		Cost:        rec.Cost,
		Evaluations: rec.Evaluations,
		Assessment:  assessmentJSON(rec.Assessment),
		CacheWarm:   warm,
		ElapsedMS:   float64(time.Since(began).Microseconds()) / 1e3,
	}
	for _, st := range rec.Trace {
		resp.Trace = append(resp.Trace, TraceStepJSON{
			Config:         st.Config.Replicas,
			MaxWaiting:     Float(st.MaxWaiting),
			Unavailability: st.Unavailability,
			AddedType:      st.AddedType,
			RemovedType:    st.RemovedType,
			Reason:         st.Reason,
		})
	}
	return resp, nil
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
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
	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()
	release, err := s.admitTenant(ctx, s.tenantOf(r, req.Tenant), 1)
	if err != nil {
		s.writeError(w, r, quotaStatus(err), err)
		return
	}
	defer release()

	entry, warm, err := s.resolveEntry(ctx, &req.System, popts)
	if err != nil {
		s.writeError(w, r, badRequestOr(err), err)
		return
	}
	resp, err := s.runRecommend(ctx, entry, warm, planner, &req, popts)
	if err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	var req CalibrateRequest
	if err := s.decodeBody(w, r, &req, &req.System); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	defer release()

	// Decode a private copy of the system: calibration rewrites the
	// workflow parameters in place, which must never touch the cached
	// (shared, immutable) entries.
	env, flows, err := wfjson.FromDocument(&req.System)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	priorFP, err := wfjson.Fingerprint(env, flows)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	copts := defaultCalibration
	if req.Smoothing != 0 {
		copts.Smoothing = req.Smoothing
	}
	// Estimate → trust gate → ApplySystem: the estimator and the model
	// rewrite are the ones drift-triggered rebuilds use, so the same
	// records give the same system whether posted here or streamed
	// through /v1/events.
	trail := audit.NewTrail()
	trail.AppendBatch(req.Trail)
	est, err := stream.FromTrail(trail)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := est.RequireCompleted(req.MinInstances); err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	env, err = est.ApplySystem(env, flows, copts)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	newFP, err := wfjson.Fingerprint(env, flows)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	doc, err := wfjson.ToDocument(env, flows)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	// Warm the cache for the recalibrated system under the default
	// evaluation options, so the follow-up what-if queries start hot.
	popts, _ := ModelJSON{}.toOptions()
	if e, warmed, err := s.models.getOrBuild(ctx, entryKey(newFP, popts), func(e *modelEntry) error {
		return buildEntry(e, newFP, env, flows, popts)
	}); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	} else if !warmed {
		s.noteClamped(newFP, e.clampedStages)
	}
	resp := CalibrateResponse{
		Fingerprint:      newFP,
		PriorFingerprint: priorFP,
		System:           *doc,
		Records:          trail.Len(),
		ArrivalRates:     make(map[string]float64, len(flows)),
	}
	for _, f := range flows {
		resp.ArrivalRates[f.Name] = f.ArrivalRate
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Endpoints:     make(map[string]EndpointStatsJSON, len(s.endpoints)),
	}
	resp.ModelCache.Size = s.models.len()
	resp.ModelCache.Max = s.models.max
	resp.ModelCache.Hits = s.models.hits.Load()
	resp.ModelCache.Misses = s.models.misses.Load()
	resp.ModelCache.Evictions = s.models.evictions.Load()
	for _, e := range s.models.snapshot() {
		resp.Evaluators = append(resp.Evaluators, EvaluatorStatsJSON{
			Fingerprint: e.fingerprint,
			Marginals:   e.ev.Marginals().Size(),
		})
	}
	resp.Admission = AdmissionStatsJSON{
		WorkerBudget: s.workers,
		PerRequest:   1,
		InUse:        s.admission.InUse(),
		Waiting:      s.admission.Waiting(),
	}
	for name, m := range s.endpoints {
		_, total, sum := m.latency.snapshot()
		st := EndpointStatsJSON{
			Requests: total,
			ByStatus: m.statuses(),
			Inflight: m.inflight.Load(),
		}
		if total > 0 {
			st.MeanMS = Float(sum / float64(total) * 1e3)
			st.P50MS = Float(m.latency.quantile(0.50) * 1e3)
			st.P95MS = Float(m.latency.quantile(0.95) * 1e3)
			st.P99MS = Float(m.latency.quantile(0.99) * 1e3)
		}
		resp.Endpoints[name] = st
	}
	resp.Ingest = IngestStatsJSON{
		Streams:       s.streams.len(),
		Events:        s.eventsIngested.Load(),
		Batches:       s.eventBatches.Load(),
		Invalidations: s.driftInvalidations.Load(),
	}
	resp.Batch = BatchStatsJSON{
		Items:  s.batchItems.Load(),
		Builds: s.batchBuilds.Load(),
	}
	resp.Jobs = s.jobs.stats()
	resp.Tenants = s.quotas.stats()
	resp.Errors = s.errorCounts()
	resp.Panics = s.panics.Load()
	resp.ClampedStages = s.clampedStages.Load()
	resp.Solvers = linalg.SolverCounters()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteString("# HELP wfmsd_requests_total Requests served, by endpoint and status code.\n")
	b.WriteString("# TYPE wfmsd_requests_total counter\n")
	b.WriteString("# HELP wfmsd_request_duration_seconds Request latency histogram.\n")
	b.WriteString("# TYPE wfmsd_request_duration_seconds histogram\n")
	for _, name := range []string{"/v1/assess", "/v1/recommend", "/v1/assess-batch", "/v1/recommend-batch", "/v1/jobs/recommend", "/v1/jobs/{id}", "/v1/calibrate", "/v1/events", "/v1/drift", "/v1/sensitivity", "/v1/deployments", "/v1/advisories", "/v1/stats", "/metrics", "/healthz"} {
		if m, ok := s.endpoints[name]; ok {
			m.writePrometheus(&b)
		}
	}
	fmt.Fprintf(&b, "# HELP wfmsd_model_cache_entries Warm system models resident in the LRU.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_model_cache_entries gauge\n")
	fmt.Fprintf(&b, "wfmsd_model_cache_entries %d\n", s.models.len())
	fmt.Fprintf(&b, "# TYPE wfmsd_model_cache_hits_total counter\n")
	fmt.Fprintf(&b, "wfmsd_model_cache_hits_total %d\n", s.models.hits.Load())
	fmt.Fprintf(&b, "# TYPE wfmsd_model_cache_misses_total counter\n")
	fmt.Fprintf(&b, "wfmsd_model_cache_misses_total %d\n", s.models.misses.Load())
	fmt.Fprintf(&b, "# TYPE wfmsd_model_cache_evictions_total counter\n")
	fmt.Fprintf(&b, "wfmsd_model_cache_evictions_total %d\n", s.models.evictions.Load())
	fmt.Fprintf(&b, "# HELP wfmsd_events_ingested_total Audit records ingested via /v1/events.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_events_ingested_total counter\n")
	fmt.Fprintf(&b, "wfmsd_events_ingested_total %d\n", s.eventsIngested.Load())
	fmt.Fprintf(&b, "# TYPE wfmsd_event_batches_total counter\n")
	fmt.Fprintf(&b, "wfmsd_event_batches_total %d\n", s.eventBatches.Load())
	fmt.Fprintf(&b, "# HELP wfmsd_drift_invalidations_total Warm-model invalidations triggered by drift detection.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_drift_invalidations_total counter\n")
	fmt.Fprintf(&b, "wfmsd_drift_invalidations_total %d\n", s.driftInvalidations.Load())
	fmt.Fprintf(&b, "# HELP wfmsd_deployments Registered deployments under reconfiguration control.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_deployments gauge\n")
	fmt.Fprintf(&b, "wfmsd_deployments %d\n", s.deployments.len())
	fmt.Fprintf(&b, "# HELP wfmsd_reconfigurations_total Drift-triggered re-plans by outcome.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_reconfigurations_total counter\n")
	fmt.Fprintf(&b, "wfmsd_reconfigurations_total{outcome=\"advised\"} %d\n", s.reconfigAdvised.Load())
	fmt.Fprintf(&b, "wfmsd_reconfigurations_total{outcome=\"failed\"} %d\n", s.reconfigFailed.Load())
	fmt.Fprintf(&b, "# HELP wfmsd_drift_events_dropped_total Drift events the full reconfiguration queue dropped.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_drift_events_dropped_total counter\n")
	fmt.Fprintf(&b, "wfmsd_drift_events_dropped_total %d\n", s.driftDropped.Load())
	if last := s.lastAdvisoryNS.Load(); last > 0 {
		fmt.Fprintf(&b, "# HELP wfmsd_advisory_age_seconds Seconds since the last reconfiguration advisory.\n")
		fmt.Fprintf(&b, "# TYPE wfmsd_advisory_age_seconds gauge\n")
		fmt.Fprintf(&b, "wfmsd_advisory_age_seconds %g\n", time.Since(time.Unix(0, last)).Seconds())
	}
	cum, total, sum := s.reconfigLatency.snapshot()
	fmt.Fprintf(&b, "# HELP wfmsd_reconfigure_latency_seconds Drift-to-advisory latency histogram.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_reconfigure_latency_seconds histogram\n")
	for i, ub := range latencyBuckets {
		fmt.Fprintf(&b, "wfmsd_reconfigure_latency_seconds_bucket{le=\"%g\"} %d\n", ub, cum[i])
	}
	fmt.Fprintf(&b, "wfmsd_reconfigure_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum[len(cum)-1])
	fmt.Fprintf(&b, "wfmsd_reconfigure_latency_seconds_sum %g\n", sum)
	fmt.Fprintf(&b, "wfmsd_reconfigure_latency_seconds_count %d\n", total)
	fmt.Fprintf(&b, "# HELP wfmsd_ingest_streams Per-system ingestion streams resident.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_ingest_streams gauge\n")
	fmt.Fprintf(&b, "wfmsd_ingest_streams %d\n", s.streams.len())
	if streams := s.streams.snapshot(); len(streams) > 0 {
		fmt.Fprintf(&b, "# HELP wfmsd_drift_score Latest drift score by system fingerprint and dimension.\n")
		fmt.Fprintf(&b, "# TYPE wfmsd_drift_score gauge\n")
		for _, st := range streams {
			score, _, _, _, _ := st.snapshot()
			for _, d := range []struct {
				name  string
				value float64
			}{
				{"transition", score.Transition},
				{"residence", score.Residence},
				{"service", score.Service},
				{"arrival", score.Arrival},
			} {
				fmt.Fprintf(&b, "wfmsd_drift_score{fingerprint=%q,dimension=%q} %g\n", st.fingerprint, d.name, d.value)
			}
		}
	}
	errCounts := s.errorCounts()
	if len(errCounts) > 0 {
		fmt.Fprintf(&b, "# HELP wfmsd_errors_total Error responses by machine-readable code.\n")
		fmt.Fprintf(&b, "# TYPE wfmsd_errors_total counter\n")
		codes := make([]string, 0, len(errCounts))
		for c := range errCounts {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "wfmsd_errors_total{code=%q} %d\n", c, errCounts[c])
		}
	}
	fmt.Fprintf(&b, "# HELP wfmsd_panics_total Panics recovered in handlers, batch items, jobs and re-plans.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_panics_total counter\n")
	fmt.Fprintf(&b, "wfmsd_panics_total %d\n", s.panics.Load())
	fmt.Fprintf(&b, "# HELP wfmsd_clamped_stages_total Stage-clamped subworkflow collapses across cold model builds.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_clamped_stages_total counter\n")
	fmt.Fprintf(&b, "wfmsd_clamped_stages_total %d\n", s.clampedStages.Load())
	fmt.Fprintf(&b, "# HELP wfmsd_admission_in_use Planner-worker tokens currently held.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_admission_in_use gauge\n")
	fmt.Fprintf(&b, "wfmsd_admission_in_use %d\n", s.admission.InUse())
	fmt.Fprintf(&b, "# TYPE wfmsd_admission_waiting gauge\n")
	fmt.Fprintf(&b, "wfmsd_admission_waiting %d\n", s.admission.Waiting())
	fmt.Fprintf(&b, "# HELP wfmsd_batch_items_total Items processed by the batch endpoints.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_batch_items_total counter\n")
	fmt.Fprintf(&b, "wfmsd_batch_items_total %d\n", s.batchItems.Load())
	fmt.Fprintf(&b, "# HELP wfmsd_batch_builds_total Cold model builds performed by batch requests (misses after fingerprint grouping).\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_batch_builds_total counter\n")
	fmt.Fprintf(&b, "wfmsd_batch_builds_total %d\n", s.batchBuilds.Load())
	jobs := s.jobs.stats()
	fmt.Fprintf(&b, "# HELP wfmsd_jobs_resident Async jobs resident (queued, running, or retained).\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_jobs_resident gauge\n")
	fmt.Fprintf(&b, "wfmsd_jobs_resident %d\n", jobs.Resident)
	fmt.Fprintf(&b, "# HELP wfmsd_jobs_total Async jobs by lifecycle event.\n")
	fmt.Fprintf(&b, "# TYPE wfmsd_jobs_total counter\n")
	fmt.Fprintf(&b, "wfmsd_jobs_total{event=\"submitted\"} %d\n", jobs.Submitted)
	fmt.Fprintf(&b, "wfmsd_jobs_total{event=\"done\"} %d\n", jobs.Done)
	fmt.Fprintf(&b, "wfmsd_jobs_total{event=\"failed\"} %d\n", jobs.Failed)
	fmt.Fprintf(&b, "wfmsd_jobs_total{event=\"canceled\"} %d\n", jobs.Canceled)
	fmt.Fprintf(&b, "wfmsd_jobs_total{event=\"expired\"} %d\n", jobs.Expired)
	if tenants := s.quotas.stats(); len(tenants) > 0 {
		fmt.Fprintf(&b, "# HELP wfmsd_tenant_requests_total Admissions requested per tenant.\n")
		fmt.Fprintf(&b, "# TYPE wfmsd_tenant_requests_total counter\n")
		fmt.Fprintf(&b, "# HELP wfmsd_tenant_rejections_total Tenant-quota rejections (budget_exceeded).\n")
		fmt.Fprintf(&b, "# TYPE wfmsd_tenant_rejections_total counter\n")
		fmt.Fprintf(&b, "# HELP wfmsd_tenant_in_use Planner-worker tokens held per tenant.\n")
		fmt.Fprintf(&b, "# TYPE wfmsd_tenant_in_use gauge\n")
		names := make([]string, 0, len(tenants))
		for name := range tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := tenants[name]
			fmt.Fprintf(&b, "wfmsd_tenant_requests_total{tenant=%q} %d\n", name, ts.Requests)
			fmt.Fprintf(&b, "wfmsd_tenant_rejections_total{tenant=%q} %d\n", name, ts.Rejections)
			fmt.Fprintf(&b, "wfmsd_tenant_in_use{tenant=%q} %d\n", name, ts.InUse)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

// writeJSON emits a JSON response body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(body); err != nil {
		s.log.Warn("encoding response", "err", err)
	}
}

// writeError emits the JSON error body (with its machine-readable code)
// and counts it in the per-code error metrics.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	code := errorCode(status, err)
	s.errMu.Lock()
	s.errCodes[code]++
	s.errMu.Unlock()
	s.writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}

// errorCode derives the machine-readable code of an error response: the
// wfmserr taxonomy code when the pipeline produced a typed error, else a
// transport-level category from the HTTP status.
func errorCode(status int, err error) string {
	if c := wfmserr.CodeOf(err); c != "" {
		return string(c)
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case statusClientClosedRequest:
		return "client_closed_request"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	default:
		return "internal"
	}
}

// errorCounts snapshots the per-code error counters.
func (s *Server) errorCounts() map[string]uint64 {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	out := make(map[string]uint64, len(s.errCodes))
	for k, v := range s.errCodes {
		out[k] = v
	}
	return out
}

// statusForError maps pipeline errors onto HTTP statuses: timeouts to
// 504, client disconnects to 499, recovered internal errors to 500, and
// everything else (invalid models, blown budgets, infeasible goals,
// exceeded iteration budgets) to 422. Infeasibility is listed
// explicitly: a planner proving no configuration within constraints
// meets the goals is a well-formed request with an unsatisfiable
// semantic — 422 with machine-readable code "infeasible", never a 500.
func statusForError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case wfmserr.CodeOf(err) == wfmserr.CodeInternal:
		return http.StatusInternalServerError
	case errors.Is(err, wfmserr.ErrInfeasible):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusUnprocessableEntity
	}
}

// badRequestOr maps a model-resolution error to 400 — the document
// itself is malformed — except that context errors keep their
// timeout/disconnect status and resource rejections (a well-formed
// model the budget cannot admit) map to 422 like their planner-path
// counterparts.
func badRequestOr(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return statusForError(err)
	case errors.Is(err, wfmserr.ErrStateSpaceTooLarge) || errors.Is(err, wfmserr.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	case wfmserr.CodeOf(err) == wfmserr.CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// typeNames lists the entry's server-type names in index order.
func typeNames(e *modelEntry) []string {
	names := make([]string, e.env.K())
	for x := range names {
		names[x] = e.env.Type(x).Name
	}
	return names
}
