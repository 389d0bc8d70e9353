package server

// This file is the server half of the paper's online calibration loop
// (Sections 3.2 and 7.1): POST /v1/events streams audit records into
// per-system incremental estimators (package stream), a drift detector
// scores the running estimates against the parameters baked into the
// warm model, and a detected drift invalidates the stale cache entries
// so the next /v1/assess rebuilds from the measured behavior.

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/spec"
	"performa/internal/stream"
	"performa/internal/wfmserr"
)

// ingestStream is the per-system calibration state: the incremental
// estimator fed by /v1/events and the drift bookkeeping against the
// model the system was last built from.
type ingestStream struct {
	fingerprint string
	est         *stream.Estimator

	mu       sync.Mutex
	baseline *stream.Baseline
	score    stream.Score
	drifted  bool
	// generation counts drift-triggered invalidations of this system.
	// It is folded into the model-cache key, so generation N's rebuild
	// can never alias generation N−1's stale entry.
	generation    uint64
	invalidations uint64
	batches       uint64
}

// noteScore records the batch's drift score and reports whether this
// batch crossed the threshold (first crossing per generation only — a
// stream already marked drifted waits for the rebuild to rebaseline).
func (st *ingestStream) noteScore(score stream.Score, th stream.Thresholds) (crossed bool, gen uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.batches++
	st.score = score
	if !st.drifted && score.Exceeds(th) {
		st.drifted = true
		st.generation++
		st.invalidations++
		crossed = true
	}
	return crossed, st.generation
}

// snapshot returns the stream's drift state under its lock.
func (st *ingestStream) snapshot() (stream.Score, bool, uint64, uint64, uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.score, st.drifted, st.generation, st.invalidations, st.batches
}

// generationNow returns the current rebuild generation.
func (st *ingestStream) generationNow() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.generation
}

// rebaseline swaps in the parameters of a freshly built model and
// re-arms the drift trigger — but only if the build belongs to the
// stream's current generation (a slow rebuild must not clobber the
// baseline of a newer one).
func (st *ingestStream) rebaseline(b *stream.Baseline, gen uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if gen != st.generation {
		return
	}
	st.baseline = b
	st.drifted = false
}

// currentBaseline returns the baseline to score against.
func (st *ingestStream) currentBaseline() *stream.Baseline {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.baseline
}

// streamRegistry holds the per-fingerprint ingestion streams in a
// bounded LRU: systems that stop sending events eventually age out.
type streamRegistry struct {
	max int

	mu      sync.Mutex
	ll      *list.List
	streams map[string]*list.Element
}

func newStreamRegistry(max int) *streamRegistry {
	if max < 1 {
		max = 1
	}
	return &streamRegistry{max: max, ll: list.New(), streams: make(map[string]*list.Element)}
}

// lookup returns the stream for the fingerprint, refreshing its LRU
// position.
func (r *streamRegistry) lookup(fp string) *ingestStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	elem, ok := r.streams[fp]
	if !ok {
		return nil
	}
	r.ll.MoveToFront(elem)
	return elem.Value.(*ingestStream)
}

// getOrCreate returns the stream for the fingerprint, creating it with
// the given initializer on first use. Creation may evict the least
// recently used stream beyond the registry bound.
func (r *streamRegistry) getOrCreate(fp string, init func() *ingestStream) *ingestStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	if elem, ok := r.streams[fp]; ok {
		r.ll.MoveToFront(elem)
		return elem.Value.(*ingestStream)
	}
	st := init()
	r.streams[fp] = r.ll.PushFront(st)
	for r.ll.Len() > r.max {
		back := r.ll.Back()
		old := back.Value.(*ingestStream)
		r.ll.Remove(back)
		delete(r.streams, old.fingerprint)
	}
	return st
}

// snapshot lists the registered streams, most recently used first.
func (r *streamRegistry) snapshot() []*ingestStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*ingestStream, 0, r.ll.Len())
	for elem := r.ll.Front(); elem != nil; elem = elem.Next() {
		out = append(out, elem.Value.(*ingestStream))
	}
	return out
}

func (r *streamRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// streamFor resolves the ingestion stream of a fingerprint, creating it
// on first contact if a warm model with that fingerprint is resident
// (the model supplies the drift baseline). Without one the client must
// POST /v1/assess first, which both validates the system and warms the
// model the events will be scored against.
func (s *Server) streamFor(fp string) (*ingestStream, error) {
	if st := s.streams.lookup(fp); st != nil {
		return st, nil
	}
	var base *modelEntry
	for _, e := range s.models.snapshot() {
		if e.fingerprint == fp {
			base = e
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf(
			"no warm model for fingerprint %q: POST the system to /v1/assess first, then stream its events", fp)
	}
	baseline := stream.NewBaseline(base.env, base.flows)
	return s.streams.getOrCreate(fp, func() *ingestStream {
		return &ingestStream{
			fingerprint: fp,
			est:         stream.NewEstimator(stream.Options{HalfLife: s.opts.StreamHalfLife}),
			baseline:    baseline,
		}
	}), nil
}

// limitTrackingReader records whether the underlying MaxBytesReader
// tripped its limit, surviving whatever error the consumer reports.
type limitTrackingReader struct {
	r     io.Reader
	limit int64 // the tripped limit; 0 until exceeded
}

func (t *limitTrackingReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		t.limit = maxErr.Limit
	}
	return n, err
}

// handleEvents ingests a batch of audit records for one system. The
// body is JSON lines (one audit.Record per line, the format wfmssim
// -trail emits); the system is addressed by the fingerprint query
// parameter, as returned by /v1/assess.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fp := strings.TrimSpace(r.URL.Query().Get("fingerprint"))
	if fp == "" {
		s.writeError(w, r, http.StatusBadRequest,
			wfmserr.New(wfmserr.CodeInvalidModel, "server", "missing fingerprint query parameter"))
		return
	}
	maxBytes := s.opts.MaxBodyBytes
	if maxBytes == 0 {
		maxBytes = 8 << 20
	}
	tooLarge := func(limit int64) error {
		return wfmserr.New(wfmserr.CodePayloadTooLarge, "server",
			"event batch exceeds the %d-byte limit; split it into smaller batches", limit)
	}
	// What can be refused without reading the body is refused first: a
	// declared length over the limit, then a fingerprint with no warm
	// model — parsing megabytes of records to answer 404 is wasted work.
	if r.ContentLength > maxBytes {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, tooLarge(maxBytes))
		return
	}
	st, err := s.streamFor(fp)
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return
	}
	// The limit tracker remembers a MaxBytesError seen mid-stream: an
	// over-limit body truncates the JSONL mid-line, so the surface error
	// out of ReadRecords is a parse failure — which must still be
	// reported as 413 payload_too_large, not as malformed input.
	lr := &limitTrackingReader{r: http.MaxBytesReader(w, r.Body, maxBytes)}
	recs, err := audit.ReadRecords(lr)
	if err != nil {
		if lr.limit > 0 {
			err = tooLarge(lr.limit)
		}
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	if len(recs) == 0 {
		s.writeError(w, r, http.StatusBadRequest,
			wfmserr.New(wfmserr.CodeInvalidModel, "server", "empty event batch"))
		return
	}

	// Ingestion shares the admission semaphore with the heavy endpoints,
	// but at single-token weight: estimator updates are cheap, yet a
	// flood of batches must not starve the planner pools.
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	if err := s.admission.Acquire(ctx, 1); err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	defer s.admission.Release(1)

	st.est.ObserveBatch(recs)
	s.eventsIngested.Add(uint64(len(recs)))
	s.eventBatches.Add(1)

	score := st.est.ScoreAgainst(st.currentBaseline(), s.driftThresholds)
	crossed, gen := st.noteScore(score, s.driftThresholds)
	invalidated := 0
	if crossed {
		invalidated = s.models.invalidateFingerprint(fp)
		s.driftInvalidations.Add(1)
		s.log.Info("drift detected: invalidating warm models",
			"fingerprint", fp, "score", score.String(), "generation", gen, "entries", invalidated)
		// Hand the crossing to the reconfiguration controller (if one
		// is running and the system has a registered deployment): the
		// advisory loop re-plans from the recalibrated model.
		s.notifyDrift(driftEvent{fingerprint: fp, generation: gen, score: score, at: time.Now()})
	}

	_, drifted, generation, invalidations, _ := st.snapshot()
	s.writeJSON(w, http.StatusOK, EventsResponse{
		Fingerprint:   fp,
		Records:       len(recs),
		TotalEvents:   st.est.Events(),
		Dropped:       st.est.Dropped(),
		Drift:         score,
		Drifted:       drifted,
		Generation:    generation,
		Invalidated:   crossed,
		Invalidations: invalidations,
		Evicted:       invalidated,
	})
}

// handleDrift reports the drift state of every ingestion stream (or of
// one system via the fingerprint query parameter).
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	want := strings.TrimSpace(r.URL.Query().Get("fingerprint"))
	resp := DriftResponse{Thresholds: DriftThresholdsJSON{
		Transition:    s.driftThresholds.Transition,
		Residence:     s.driftThresholds.Residence,
		Service:       s.driftThresholds.Service,
		Arrival:       s.driftThresholds.Arrival,
		MinDepartures: s.driftThresholds.MinDepartures,
		MinSamples:    s.driftThresholds.MinSamples,
	}}
	for _, st := range s.streams.snapshot() {
		if want != "" && st.fingerprint != want {
			continue
		}
		score, drifted, generation, invalidations, batches := st.snapshot()
		resp.Streams = append(resp.Streams, DriftStreamJSON{
			Fingerprint:   st.fingerprint,
			Events:        st.est.Events(),
			Batches:       batches,
			Dropped:       st.est.Dropped(),
			InFlight:      st.est.InFlight(),
			Score:         score,
			MaxScore:      score.Max(),
			Drifted:       drifted,
			Generation:    generation,
			Invalidations: invalidations,
		})
	}
	if want != "" && len(resp.Streams) == 0 {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("no ingestion stream for fingerprint %q", want))
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// recalibratedSystem derives the generation-N system of a drifted
// stream: the posted document's workflows rewritten with the stream's
// current estimates. The posted inputs are cloned — estimates apply to
// private copies, never to request- or cache-shared state. On any
// estimation failure the posted system is returned unchanged (with the
// error, for logging): a drifted model that cannot be re-estimated must
// degrade to designer parameters, not fail the request; the next drift
// crossing retries.
func (s *Server) recalibratedSystem(st *ingestStream, env *spec.Environment, flows []*spec.Workflow) (*spec.Environment, []*spec.Workflow, error) {
	est, err := st.est.Snapshot()
	if err != nil {
		return env, flows, err
	}
	clones := make([]*spec.Workflow, len(flows))
	for i, w := range flows {
		clones[i] = w.Clone()
	}
	measured, err := est.ApplySystem(env, clones, defaultCalibration)
	if err != nil {
		return env, flows, err
	}
	return measured, clones, nil
}

// defaultCalibration is the calibration setting of drift-triggered
// rebuilds and of a POST /v1/calibrate without "smoothing": Laplace
// smoothing keeps never-observed branches possible.
var defaultCalibration = calibrate.Options{Smoothing: 0.5}
