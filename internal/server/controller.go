package server

// This file closes the paper's feedback loop (Section 7.1's "monitor →
// recalibrate → reconfigure" cycle) inside the daemon. A deployment
// registers the configuration that is actually running (POST
// /v1/deployments); when its ingestion stream crosses the drift
// thresholds, the controller re-plans incrementally — warm-starting the
// greedy search from the deployed configuration against the
// recalibrated model — and emits a reconfiguration advisory (GET
// /v1/advisories) carrying the old and new configurations, the
// predicted metric deltas, and a sensitivity-table justification. GET
// /v1/sensitivity exposes the same ranked table for ad-hoc what-if
// analysis over any warm model.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/sensitivity"
	"performa/internal/stream"
	"performa/internal/wfmserr"
)

// advisoryTopFactors bounds how many ranked sensitivity entries ride in
// an advisory; the full table stays available on /v1/sensitivity.
const advisoryTopFactors = 3

// advisoryLogSize bounds the in-memory advisory ring.
const advisoryLogSize = 256

// driftEvent is the controller's work item: one threshold crossing of a
// registered deployment's ingestion stream.
type driftEvent struct {
	fingerprint string
	generation  uint64
	score       stream.Score
	at          time.Time
}

// deployment is one registered running configuration. The decoded
// system is retained so post-drift re-plans can rebuild the
// recalibrated model without re-posting the document.
type deployment struct {
	sys       system
	goals     config.Goals
	cons      config.Constraints
	goalsJSON GoalsJSON

	mu         sync.Mutex
	config     []int
	assessment *AssessmentJSON
	advisories uint64
}

func (d *deployment) currentConfig() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.config...)
}

func (d *deployment) noteAdvisory() {
	d.mu.Lock()
	d.advisories++
	d.mu.Unlock()
}

func (d *deployment) json(types []string) DeploymentJSON {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeploymentJSON{
		Fingerprint: d.sys.fp,
		ServerTypes: types,
		Config:      append([]int(nil), d.config...),
		Goals:       d.goalsJSON,
		Assessment:  d.assessment,
		Advisories:  d.advisories,
	}
}

// deploymentRegistry holds the registered deployments by fingerprint.
// Re-registering a fingerprint replaces the deployment (the operator
// applied an advisory and reports the new running configuration).
type deploymentRegistry struct {
	mu   sync.Mutex
	deps map[string]*deployment
}

func newDeploymentRegistry() *deploymentRegistry {
	return &deploymentRegistry{deps: make(map[string]*deployment)}
}

func (r *deploymentRegistry) put(d *deployment) {
	r.mu.Lock()
	r.deps[d.sys.fp] = d
	r.mu.Unlock()
}

func (r *deploymentRegistry) lookup(fp string) *deployment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deps[fp]
}

func (r *deploymentRegistry) snapshot() []*deployment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*deployment, 0, len(r.deps))
	for _, d := range r.deps {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sys.fp < out[j].sys.fp })
	return out
}

// advisoryLog is a bounded ring of emitted advisories with monotonic
// IDs; readers poll with since_id.
type advisoryLog struct {
	mu   sync.Mutex
	buf  []AdvisoryJSON
	next uint64 // next ID to assign (IDs start at 1)
}

func newAdvisoryLog() *advisoryLog {
	return &advisoryLog{next: 1}
}

// append assigns the advisory its ID and stores it, evicting the oldest
// beyond the ring bound. It returns the assigned ID.
func (l *advisoryLog) append(a AdvisoryJSON) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	a.ID = l.next
	l.next++
	l.buf = append(l.buf, a)
	if len(l.buf) > advisoryLogSize {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-advisoryLogSize:]...)
	}
	return a.ID
}

// list returns the retained advisories with ID > sinceID, oldest first,
// optionally filtered by fingerprint. Never nil (the reply lists []),
// and sized by what matches: a poll usually finds one or none.
func (l *advisoryLog) list(fp string, sinceID uint64) []AdvisoryJSON {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []AdvisoryJSON{}
	for _, a := range l.buf {
		if a.ID <= sinceID {
			continue
		}
		if fp != "" && a.Fingerprint != fp {
			continue
		}
		out = append(out, a)
	}
	return out
}

// controller is the reconfiguration controller: the registered
// deployments, the advisory log, the drift queue feeding the loop
// goroutine and that goroutine's lifecycle, and the re-plan counters.
// Its cancel is invoked at Shutdown start, before the in-flight waits,
// so a mid-re-plan controller unwinds promptly instead of deadlocking
// the drain.
type controller struct {
	log         *slog.Logger
	deployments *deploymentRegistry
	advisories  *advisoryLog
	queue       chan driftEvent // nil unless started

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	advised, failed, dropped atomic.Uint64
	latency                  *histogram // drift crossing to advisory
	lastAdvisoryNS           atomic.Int64
}

func newController(log *slog.Logger) *controller {
	ctx, cancel := context.WithCancel(context.Background())
	return &controller{
		log:         log,
		deployments: newDeploymentRegistry(),
		advisories:  newAdvisoryLog(),
		ctx:         ctx,
		cancel:      cancel,
		latency:     newHistogram(),
	}
}

// start runs the loop: replan serializes re-plans (one at a time, each
// holding one admission token) until the controller is canceled.
func (c *controller) start(replan func(driftEvent)) {
	// Room for a burst of crossings across deployments while one re-plan
	// runs; past it notify drops and counts.
	c.queue = make(chan driftEvent, 64)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.ctx.Done():
				return
			case ev := <-c.queue:
				replan(ev)
			}
		}
	}()
}

// notify hands a threshold crossing to the loop without blocking the
// ingestion path: a full queue drops the event (counted), and the next
// crossing of a later generation retries. Crossings for systems with no
// registered deployment are ignored — drift-triggered cache
// invalidation already handled them.
func (c *controller) notify(ev driftEvent) {
	if c.queue == nil || c.deployments.lookup(ev.fingerprint) == nil {
		return
	}
	select {
	case c.queue <- ev:
	default:
		c.dropped.Add(1)
		c.log.Warn("reconfiguration queue full; dropping drift event",
			"fingerprint", ev.fingerprint, "generation", ev.generation)
	}
}

// refused counts a re-plan that got no admission token before its
// deadline or the controller's shutdown.
func (c *controller) refused() { c.failed.Add(1) }

// emit finalizes and logs one advisory: latency from the drift
// crossing, the outcome counters, and the append to the advisory ring.
func (c *controller) emit(dep *deployment, adv AdvisoryJSON, at time.Time, planErr error) {
	latency := time.Since(at)
	adv.LatencyMS = float64(latency.Microseconds()) / 1e3
	adv.UnixMS = time.Now().UnixMilli()
	outcome := "advised"
	if planErr != nil {
		outcome = "failed"
		adv.PlannerError = planErr.Error()
		adv.PlannerCode = errorCode(statusForError(planErr), planErr)
		c.failed.Add(1)
	} else {
		c.advised.Add(1)
	}
	c.latency.observe(latency)
	c.lastAdvisoryNS.Store(time.Now().UnixNano())
	id := c.advisories.append(adv)
	dep.noteAdvisory()
	c.log.Info("reconfiguration advisory",
		"id", id,
		"fingerprint", adv.Fingerprint,
		"generation", adv.Generation,
		"outcome", outcome,
		"old_config", adv.OldConfig,
		"new_config", adv.NewConfig,
		"latency", latency,
	)
}

// writeMetrics writes the controller's series; none is on /v1/stats.
func (c *controller) writeMetrics(p *promWriter) {
	p.metric("wfmsd_deployments", "gauge", "Registered deployments under reconfiguration control.", len(c.deployments.snapshot()))
	p.family("wfmsd_reconfigurations_total", "counter", "Drift-triggered re-plans by outcome.")
	p.sample("wfmsd_reconfigurations_total", c.advised.Load(), label("outcome", "advised"))
	p.sample("wfmsd_reconfigurations_total", c.failed.Load(), label("outcome", "failed"))
	p.metric("wfmsd_drift_events_dropped_total", "counter", "Drift events the full reconfiguration queue dropped.", c.dropped.Load())
	if last := c.lastAdvisoryNS.Load(); last > 0 {
		p.metric("wfmsd_advisory_age_seconds", "gauge", "Seconds since the last reconfiguration advisory.", time.Since(time.Unix(0, last)).Seconds())
	}
	p.family("wfmsd_reconfigure_latency_seconds", "histogram", "Drift-to-advisory latency histogram.")
	c.latency.writePrometheus(p, "wfmsd_reconfigure_latency_seconds")
}

// runReconfigure executes one drift-triggered re-plan: rebuild the
// recalibrated generation-N model, assess the deployed configuration
// under it, warm-start the greedy search from that configuration, rank
// the result's sensitivities, and emit the advisory. Planning failures
// emit a failure advisory instead of vanishing.
func (s *Server) runReconfigure(ev driftEvent) {
	dep := s.ctrl.deployments.lookup(ev.fingerprint)
	if dep == nil {
		return
	}
	adv := AdvisoryJSON{
		Fingerprint: ev.fingerprint,
		Generation:  ev.generation,
		Trigger:     scoreJSON(ev.score),
	}
	defer s.recoverPanic("re-plan", func(err error) { s.ctrl.emit(dep, adv, ev.at, err) })
	ctx, cancel := s.deadline(s.ctrl.ctx, 0)
	defer cancel()
	// The controller competes for workers like any client: a re-plan
	// must not starve interactive requests.
	if err := s.sem.Acquire(ctx, 1); err != nil {
		s.ctrl.refused()
		return
	}
	defer s.sem.Release(1)

	adv.OldConfig = dep.currentConfig()
	entry, _, err := s.resolve(ctx, &dep.sys)
	if err != nil {
		s.ctrl.emit(dep, adv, ev.at, err)
		return
	}
	if oldAs, err := entry.assess(ctx, adv.OldConfig, dep.goals, dep.sys.popts); err == nil {
		aj := assessmentJSON(oldAs)
		adv.OldAssessment = &aj
	}
	cons := dep.cons
	cons.StartFrom = adv.OldConfig
	rec, err := config.GreedyContext(ctx, entry.analysis, dep.goals, cons, config.Options{Performability: dep.sys.popts, Evaluator: entry.ev})
	if err != nil {
		s.ctrl.emit(dep, adv, ev.at, err)
		return
	}
	adv.NewConfig = rec.Config.Replicas
	aj := assessmentJSON(rec.Assessment)
	adv.NewAssessment = &aj
	adv.Evaluations = rec.Evaluations
	if adv.OldAssessment != nil {
		adv.DeltaMaxWaiting = adv.NewAssessment.MaxWaiting - adv.OldAssessment.MaxWaiting
		adv.DeltaUnavailability = Float(adv.NewAssessment.Unavailability - adv.OldAssessment.Unavailability)
	}
	// The sensitivity table is the advisory's justification: which
	// parameters of the drifted system dominate the metrics at the
	// recommended configuration.
	if table, terr := sensitivity.Compute(ctx, entry.ev, rec.Config, sensitivity.Options{}); terr == nil {
		adv.Justification = table.Summary
		adv.TopFactors = sensitivityEntriesJSON(table.Entries[:min(len(table.Entries), advisoryTopFactors)])
	} else {
		s.opts.Logger.Warn("advisory sensitivity analysis failed", "fingerprint", ev.fingerprint, "err", terr)
	}
	s.ctrl.emit(dep, adv, ev.at, nil)
}

// handleDeploymentPost registers (or replaces) a deployment: the model
// is warmed, the deployed configuration assessed against the goals, and
// the ingestion stream created so /v1/events can start scoring drift.
func (s *Server) handleDeploymentPost(w http.ResponseWriter, r *http.Request) {
	var req DeploymentRequest
	if err := s.decodeDocument(w, r, &req, &req.System); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	it := decodeItem(&req.System, &req.Model, ModelJSON{})
	if err := it.decode(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(req.Config) != it.env.K() {
		s.writeError(w, r, http.StatusBadRequest, wfmserr.New(wfmserr.CodeInvalidRequest, "server",
			"%d replica counts for %d server types", len(req.Config), it.env.K()))
		return
	}
	ctx, cancel := s.deadline(r.Context(), 0)
	defer cancel()
	if err := s.sem.Acquire(ctx, 1); err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	defer s.sem.Release(1)

	entry, _, err := s.resolve(ctx, &it)
	if err != nil {
		s.writeError(w, r, badRequestOr(err), err)
		return
	}
	as, err := entry.assess(ctx, req.Config, req.Goals.toGoals(), it.popts)
	if err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	if _, err := s.streamFor(it.fp); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	aj := assessmentJSON(as)
	dep := &deployment{
		sys:        it,
		goals:      req.Goals.toGoals(),
		cons:       req.Constraints.toConstraints(),
		goalsJSON:  req.Goals,
		config:     append([]int(nil), req.Config...),
		assessment: &aj,
	}
	dep.cons.StartFrom = nil // the controller sets it per re-plan
	s.ctrl.deployments.put(dep)
	s.writeJSON(w, http.StatusOK, dep.json(typeNames(entry.env)))
}

// handleDeploymentList reports the registered deployments.
func (s *Server) handleDeploymentList(w http.ResponseWriter, r *http.Request) {
	resp := DeploymentsResponse{Deployments: []DeploymentJSON{}}
	for _, dep := range s.ctrl.deployments.snapshot() {
		resp.Deployments = append(resp.Deployments, dep.json(typeNames(dep.sys.env)))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleAdvisories reports emitted reconfiguration advisories, oldest
// first, optionally filtered by fingerprint and paged by since_id.
func (s *Server) handleAdvisories(w http.ResponseWriter, r *http.Request) {
	fp := strings.TrimSpace(r.URL.Query().Get("fingerprint"))
	var sinceID uint64
	if raw := strings.TrimSpace(r.URL.Query().Get("since_id")); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest,
				wfmserr.New(wfmserr.CodeInvalidRequest, "server", "bad since_id %q: %v", raw, err))
			return
		}
		sinceID = v
	}
	advisories := s.ctrl.advisories.list(fp, sinceID)
	resp := AdvisoriesResponse{Advisories: advisories}
	if n := len(advisories); n > 0 {
		resp.NextSinceID = advisories[n-1].ID
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSensitivity computes the ranked sensitivity table of a warm
// system model. The system is addressed by fingerprint (as returned by
// /v1/assess); the configuration comes from the config query parameter
// ("2,2,3") or defaults to the fingerprint's registered deployment.
func (s *Server) handleSensitivity(w http.ResponseWriter, r *http.Request) {
	fp := strings.TrimSpace(r.URL.Query().Get("fingerprint"))
	if fp == "" {
		s.writeError(w, r, http.StatusBadRequest,
			wfmserr.New(wfmserr.CodeInvalidRequest, "server", "missing fingerprint query parameter"))
		return
	}
	entry := s.models.byFingerprint(fp)
	if entry == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf(
			"no warm model for fingerprint %q: POST the system to /v1/assess first", fp))
		return
	}
	var replicas []int
	if raw := strings.TrimSpace(r.URL.Query().Get("config")); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				s.writeError(w, r, http.StatusBadRequest,
					wfmserr.New(wfmserr.CodeInvalidRequest, "server", "bad config %q: %v", raw, err))
				return
			}
			replicas = append(replicas, v)
		}
	} else if dep := s.ctrl.deployments.lookup(fp); dep != nil {
		replicas = dep.currentConfig()
	} else {
		s.writeError(w, r, http.StatusBadRequest, wfmserr.New(wfmserr.CodeInvalidRequest, "server",
			"missing config query parameter and no registered deployment for %q", fp))
		return
	}
	if len(replicas) != entry.env.K() {
		s.writeError(w, r, http.StatusBadRequest, wfmserr.New(wfmserr.CodeInvalidRequest, "server",
			"%d replica counts for %d server types", len(replicas), entry.env.K()))
		return
	}
	ctx, cancel := s.deadline(r.Context(), 0)
	defer cancel()
	if err := s.sem.Acquire(ctx, 1); err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	defer s.sem.Release(1)

	began := time.Now()
	table, err := sensitivity.Compute(ctx, entry.ev, perf.Config{Replicas: replicas}, sensitivity.Options{})
	if err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, SensitivityResponse{
		Fingerprint:        entry.fingerprint,
		ServerTypes:        typeNames(entry.env),
		Config:             table.Config,
		BaseMaxWaiting:     Float(table.BaseMaxWaiting),
		BaseUnavailability: Float(table.BaseUnavailability),
		BaseWorkflowDelays: floats(table.BaseWorkflowDelays),
		Entries:            sensitivityEntriesJSON(table.Entries),
		Summary:            table.Summary,
		ElapsedMS:          float64(time.Since(began).Microseconds()) / 1e3,
	})
}
