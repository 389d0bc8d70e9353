// Command wfmsd serves the configuration-advisory pipeline over
// HTTP/JSON: assessment, planning, and calibration of distributed-WFMS
// configurations as a long-running service with warm model caches — the
// paper's Section 7 tool consulted continuously instead of re-solving
// the models per invocation.
//
// Usage:
//
//	wfmsd -addr :8080
//	wfmsd -addr :8080 -workers 8 -cache-size 64 -request-timeout 30s
//
// Endpoints: POST /v1/assess, POST /v1/recommend, POST /v1/assess-batch,
// POST /v1/recommend-batch, POST /v1/jobs/recommend, GET|DELETE
// /v1/jobs/{id}, POST /v1/calibrate, POST /v1/events, GET /v1/drift,
// GET /v1/sensitivity, POST|GET /v1/deployments, GET /v1/advisories,
// GET /v1/stats, GET /metrics, GET /healthz. See internal/server for
// the request schemas and DESIGN.md §7 (serving), §10 (online
// calibration), §13 (batch/async serving and tenant quotas), and §14
// (sensitivity-guided reconfiguration) for the architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"performa/internal/server"
	"performa/internal/stream"
	"performa/internal/wfmserr"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent planner runs (0 = all CPUs)")
		cacheSize  = flag.Int("cache-size", 32, "warm system models kept resident (LRU entries)")
		reqTimeout = flag.Duration("request-timeout", 60*time.Second, "per-request deadline for assess/recommend/calibrate (0 = none)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		maxBody    = flag.Int64("max-body", 8<<20, "request body size cap in bytes")
		logJSON    = flag.Bool("log-json", false, "emit JSON logs instead of text")
		maxStates  = flag.Int("max-states", wfmserr.Default.MaxStates, "state-space size admitted per model (0 = unlimited)")
		maxDim     = flag.Int("max-matrix-dim", wfmserr.Default.MaxMatrixDim, "dense linear-system dimension admitted per solve (0 = unlimited)")
		maxSteps   = flag.Int("max-solver-steps", wfmserr.Default.MaxUniformizationSteps, "uniformization step budget per transient solve (0 = library default)")

		maxBatch     = flag.Int("max-batch-items", 0, "items admitted per batch request (0 = 256)")
		jobTTL       = flag.Duration("job-ttl", 0, "retention of finished async job results (0 = 15m)")
		maxJobs      = flag.Int("max-jobs", 0, "async jobs resident at once, queued+running+retained (0 = 1024)")
		tenantBudget = flag.Int("tenant-budget", 0, "per-tenant cap on concurrent planner runs (0 = quotas off)")

		driftThreshold = flag.Float64("drift-threshold", 0, "relative parameter change at which streamed events invalidate a warm model (0 = per-dimension defaults)")
		driftMinSample = flag.Uint64("drift-min-samples", 0, "observations required before an estimate is drift-scored (0 = defaults)")
		streamHalfLife = flag.Float64("stream-half-life", 0, "exponential-decay half-life of the ingestion estimators in trail time-units (0 = keep all history)")
		maxStreams     = flag.Int("max-streams", 0, "per-system ingestion streams kept resident (0 = 64)")

		reconfigure = flag.Bool("reconfigure", false, "run the reconfiguration controller: drift crossings of registered deployments (POST /v1/deployments) trigger warm-started re-plans published on /v1/advisories")
	)
	flag.Parse()

	// The resource budget is consulted before any state space, matrix, or
	// series is allocated; requests exceeding it are refused with typed
	// 4xx errors instead of exhausting memory.
	wfmserr.Default = wfmserr.Budget{
		MaxStates:              *maxStates,
		MaxMatrixDim:           *maxDim,
		MaxUniformizationSteps: *maxSteps,
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	svc := server.New(server.Options{
		Workers:        *workers,
		CacheSize:      *cacheSize,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *reqTimeout,
		Logger:         logger,
		Drift: stream.Thresholds{
			Transition:    *driftThreshold,
			Residence:     *driftThreshold,
			Service:       *driftThreshold,
			Arrival:       *driftThreshold,
			MinDepartures: *driftMinSample,
			MinSamples:    *driftMinSample,
		},
		StreamHalfLife: *streamHalfLife,
		MaxStreams:     *maxStreams,
		MaxBatchItems:  *maxBatch,
		JobTTL:         *jobTTL,
		MaxJobs:        *maxJobs,
		TenantBudget:   *tenantBudget,
		Reconfigure:    *reconfigure,
	})
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	logger.Info("wfmsd listening", "addr", *addr)

	select {
	case <-ctx.Done():
		logger.Info("shutting down", "drain", drain.String())
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "wfmsd:", err)
		os.Exit(1)
	}

	// Drain: refuse new requests at the service layer, then close the
	// listener and wait for in-flight requests (http.Server.Shutdown
	// waits for active connections; expiring its context cancels the
	// request contexts, which unwinds any still-running searches).
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Warn("drain incomplete, canceling in-flight requests", "err", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "wfmsd: shutdown:", err)
		os.Exit(1)
	}
	logger.Info("wfmsd stopped")
}
