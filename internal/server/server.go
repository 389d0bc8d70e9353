// Package server exposes the configuration-advisory pipeline as a
// long-running HTTP/JSON service — the paper's Section 7 tool run as a
// daemon instead of a one-shot CLI. The endpoints are
//
//	POST /v1/assess           evaluate a configuration Y against goals
//	POST /v1/recommend        run a planner (greedy/exhaustive/bnb)
//	POST /v1/assess-batch     evaluate many items, amortizing model builds
//	POST /v1/recommend-batch  plan many items, amortizing model builds
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
// entirely, and admits planner work through one gate: a weighted FIFO
// semaphore of Options.Workers tokens, one per concurrent planner run,
// so concurrent recommendations cannot oversubscribe the cores. Every
// planning request is answered synchronously. Request contexts thread
// through the planners: a client disconnect or timeout cancels the
// in-flight search promptly, discarding partial results.
//
// Server is an HTTP shell around one owner per concern, each holding
// its own counters and lifecycle: admission (semaphore.go), the model
// cache (cache.go), ingestion streams (ingest.go), the reconfiguration
// controller (controller.go), batch counters (batch.go) and error
// counters (server.go). Each owner reports through one stats method;
// /v1/stats and /metrics render that one snapshot.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/audit"
	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
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
	// MaxStreams bounds the per-system ingestion streams (LRU);
	// 0 means 64.
	MaxStreams int
	// MaxBatchItems bounds the item count of one batch request;
	// 0 means 256.
	MaxBatchItems int
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
	opts      Options // defaults resolved by New
	mux       *http.ServeMux
	start     time.Time
	closed    atomic.Bool
	inflight  sync.WaitGroup
	reqID     atomic.Uint64
	endpoints map[string]*endpointMetrics

	sem     *semaphore      // semaphore.go
	models  *modelCache     // cache.go
	streams *streamRegistry // ingest.go
	ctrl    *controller     // controller.go
	batches batchCounters   // batch.go
	errs    errorCounters   // server.go

	// noBodySplit sends every body through encoding/json whole. Only
	// tests set it, to hold decodeBody's two routes against each other.
	noBodySplit bool
}

// withDefaults resolves the zero values of Options to their defaults.
func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	o.Workers = max(o.Workers, 1)
	if o.CacheSize == 0 {
		o.CacheSize = 32
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	o.Drift = o.Drift.WithDefaults()
	if o.MaxStreams == 0 {
		o.MaxStreams = 64
	}
	if o.MaxBatchItems == 0 {
		o.MaxBatchItems = 256
	}
	return o
}

// New builds the service.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics),
		sem:       newSemaphore(opts.Workers),
		models:    newModelCache(opts.CacheSize, opts.Logger),
		streams:   newStreamRegistry(opts.MaxStreams, opts.Drift),
		ctrl:      newController(opts.Logger),
	}
	s.route("POST /v1/assess", s.handleAssess)
	s.route("POST /v1/recommend", s.handleRecommend)
	s.route("POST /v1/assess-batch", s.handleAssessBatch)
	s.route("POST /v1/recommend-batch", s.handleRecommendBatch)
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
		s.ctrl.start(s.runReconfigure)
	}
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown refuses new requests (503) and waits for the in-flight ones
// and the reconfiguration controller to drain, or for ctx to expire.
// Callers cancel in-flight HTTP work by shutting down the enclosing
// http.Server, whose base context closes the request contexts.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	// Stop the reconfiguration controller before waiting on the drains:
	// its context must close first so a mid-re-plan controller (which
	// holds admission tokens like any client) unwinds promptly rather
	// than racing the shutdown deadline.
	s.ctrl.cancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.ctrl.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// route registers a handler wrapped with draining, metrics, and
// per-request structured logging.
func (s *Server) route(pattern string, h func(http.ResponseWriter, *http.Request)) {
	endpoint := pattern[strings.LastIndex(pattern, " ")+1:]
	// Methods sharing a path pattern (POST and GET on /v1/deployments)
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
		s.opts.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
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
// planners or evaluators: the handler middleware, batch item workers
// and the reconfiguration controller. A residual panic (one the
// typed-error routes did not intercept) must cost one request, item or
// re-plan, never the process. It is counted, logged with its stack for
// the bug report, and handed to fail as a typed internal error.
func (s *Server) recoverPanic(where string, fail func(error)) {
	p := recover()
	if p == nil {
		return
	}
	s.errs.notePanic()
	s.opts.Logger.LogAttrs(context.Background(), slog.LevelError, "panic",
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

// deadline bounds ctx by the effective deadline: timeout_ms when
// given, else the server's RequestTimeout, else none.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.opts.RequestTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	var req AssessRequest
	sys := system{doc: &req.System}
	if err := s.decodeBody(w, r, &req, &sys); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	popts, err := req.Model.toOptions()
	if err != nil {
		s.refuse(w, r, &sys, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.deadline(r.Context(), 0)
	defer cancel()
	if err := s.sem.Acquire(ctx, 1); err != nil {
		s.refuse(w, r, &sys, statusForError(err), err)
		return
	}
	defer s.sem.Release(1)

	sys.popts = popts
	entry, warm, err := s.resolve(ctx, &sys)
	if err != nil {
		s.writeError(w, r, badRequestOr(err), err)
		return
	}
	as, err := entry.assess(ctx, req.Config, req.Goals.toGoals(), popts)
	if err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, AssessResponse{
		Fingerprint: entry.fingerprint,
		ServerTypes: typeNames(entry.env),
		Assessment:  assessmentJSON(as),
		CacheWarm:   warm,
	})
}

// planners are the searches /v1/recommend runs, by canonical name.
var planners = map[string]func(context.Context, *perf.Analysis, config.Goals, config.Constraints, config.Options) (*config.Recommendation, error){
	"greedy":     config.GreedyContext,
	"exhaustive": config.Exhaustive,
	"bnb":        config.BranchAndBoundContext,
}

// validatePlanner canonicalizes a planner name ("" means greedy,
// "branch-and-bound" bnb), rejecting unknown ones with a typed
// validation error.
func validatePlanner(name string) (string, error) {
	switch name {
	case "":
		name = "greedy"
	case "branch-and-bound":
		name = "bnb"
	}
	if planners[name] == nil {
		return "", wfmserr.New(wfmserr.CodeInvalidRequest, "server",
			"unknown planner %q (want greedy, exhaustive, or bnb)", name)
	}
	return name, nil
}

// runRecommend executes one planner search against a resolved warm
// entry and assembles the wire response — the shared engine behind
// /v1/recommend and /v1/recommend-batch items. planner must already be
// canonical (validatePlanner); admission tokens are the caller's
// concern.
func (s *Server) runRecommend(ctx context.Context, entry *modelEntry, warm bool, planner string, req *RecommendRequest, popts performability.Options) (*RecommendResponse, error) {
	began := time.Now()
	rec, err := planners[planner](ctx, entry.analysis, req.Goals.toGoals(), req.Constraints.toConstraints(),
		config.Options{Performability: popts, Evaluator: entry.ev})
	if err != nil {
		return nil, err
	}
	resp := &RecommendResponse{
		Fingerprint: entry.fingerprint,
		Planner:     planner,
		ServerTypes: typeNames(entry.env),
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
	sys := system{doc: &req.System}
	if err := s.decodeBody(w, r, &req, &sys); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	popts, err := req.Model.toOptions()
	var planner string
	if err == nil {
		planner, err = validatePlanner(req.Planner)
	}
	if err != nil {
		s.refuse(w, r, &sys, http.StatusBadRequest, err)
		return
	}
	if err := validateTimeout(req.TimeoutMillis); err != nil {
		s.refuse(w, r, &sys, http.StatusUnprocessableEntity, err)
		return
	}
	sys.popts = popts
	ctx, cancel := s.deadline(r.Context(), req.TimeoutMillis)
	defer cancel()
	if err := s.sem.Acquire(ctx, 1); err != nil {
		s.refuse(w, r, &sys, statusForError(err), err)
		return
	}
	defer s.sem.Release(1)

	entry, warm, err := s.resolve(ctx, &sys)
	if err != nil {
		s.writeError(w, r, badRequestOr(err), err)
		return
	}
	resp, err := s.runRecommend(ctx, entry, warm, planner, &req, sys.popts)
	if err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	var req CalibrateRequest
	if err := s.decodeDocument(w, r, &req, &req.System); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	ctx, cancel := s.deadline(r.Context(), 0)
	defer cancel()
	if err := s.sem.Acquire(ctx, 1); err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	defer s.sem.Release(1)

	// Decode a private copy of the system: calibration rewrites the
	// workflow parameters in place, which must never touch the cached
	// (shared, immutable) entries.
	it := decodeItem(&req.System, nil, ModelJSON{})
	if err := it.decode(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	env, flows := it.env, it.flows
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
	if _, _, err := s.models.getOrBuild(ctx, entryKey(newFP, it.popts, 0), func(e *modelEntry) error {
		return buildEntry(e, newFP, env, flows, it.popts)
	}); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := CalibrateResponse{
		Fingerprint:      newFP,
		PriorFingerprint: it.fp,
		System:           *doc,
		Records:          trail.Len(),
		ArrivalRates:     make(map[string]float64, len(flows)),
	}
	for _, f := range flows {
		resp.ArrivalRates[f.Name] = f.ArrivalRate
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

// writeJSON emits a JSON response body, encoded by AppendReply into a
// pooled buffer before the status is sent, so a reply the encoder
// refuses becomes a typed 500, never a success with an empty body. The
// whole body is known before the header goes out, so it is sent with its
// Content-Length instead of chunked.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	bp := replyBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= 64<<10 {
			replyBufs.Put(bp)
		}
	}()
	raw, err := AppendReply((*bp)[:0], body)
	if err != nil {
		s.opts.Logger.Error("encoding response", "err", err)
		status, err = http.StatusInternalServerError, wfmserr.New(wfmserr.CodeInternal, "server", "encoding the reply: %v", err)
		s.errs.note(string(wfmserr.CodeInternal))
		raw, _ = AppendReply(raw[:0], ErrorResponse{Error: err.Error(), Code: string(wfmserr.CodeInternal)})
	}
	*bp = append(raw, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(status)
	w.Write(*bp)
}

// writeError emits the JSON error body (with its machine-readable code)
// and counts it in the per-code error metrics.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	code := errorCode(status, err)
	s.errs.note(code)
	s.writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}

// refuse writes err for a request whose system may still be a posted
// span, unless that span is malformed: a whole-body decode would have
// reported it before anything else, so that error is written instead.
func (s *Server) refuse(w http.ResponseWriter, r *http.Request, sys *system, status int, err error) {
	if derr := sys.parse(); derr != nil {
		status, err = decodeStatus(derr), derr
	}
	s.writeError(w, r, status, err)
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

// errorCounters counts error responses by machine-readable code and
// the panics recoverPanic contained.
type errorCounters struct {
	panics atomic.Uint64

	mu    sync.Mutex
	codes map[string]uint64
}

func (e *errorCounters) note(code string) {
	e.mu.Lock()
	if e.codes == nil {
		e.codes = make(map[string]uint64)
	}
	e.codes[code]++
	e.mu.Unlock()
}

func (e *errorCounters) notePanic() { e.panics.Add(1) }

func (e *errorCounters) stats(resp *StatsResponse) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.codes) > 0 {
		resp.Errors = make(map[string]uint64, len(e.codes))
		for k, v := range e.codes {
			resp.Errors[k] = v
		}
	}
	resp.Panics = e.panics.Load()
}

// statusForError maps pipeline errors onto HTTP statuses: timeouts to
// 504, client disconnects to 499, recovered internal errors to 500, and
// everything else (invalid models, blown budgets, infeasible goals,
// exceeded iteration budgets) to 422. Infeasibility belongs there: a
// planner proving no configuration within constraints meets the goals
// is a well-formed request with an unsatisfiable semantic — 422 with
// machine-readable code "infeasible", never a 500.
func statusForError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case wfmserr.CodeOf(err) == wfmserr.CodeInternal:
		return http.StatusInternalServerError
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

// typeNames lists the environment's server-type names in index order.
func typeNames(env *spec.Environment) []string {
	names := make([]string, env.K())
	for x := range names {
		names[x] = env.Type(x).Name
	}
	return names
}
