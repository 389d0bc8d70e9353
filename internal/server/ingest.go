package server

// This file is the server half of the paper's online calibration loop
// (Sections 3.2 and 7.1): POST /v1/events streams audit records into
// per-system incremental estimators (package stream), a drift detector
// scores the running estimates against the parameters baked into the
// warm model, and a detected drift invalidates the stale cache entries
// so the next /v1/assess rebuilds from the measured behavior.

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
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
	generation uint64
	batches    uint64
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
		crossed = true
	}
	return crossed, st.generation
}

// snapshot returns the stream's drift state under its lock; the
// generation is also the count of its drift invalidations.
func (st *ingestStream) snapshot() (score stream.Score, drifted bool, generation, batches uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.score, st.drifted, st.generation, st.batches
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
// bounded LRU (systems that stop sending events eventually age out),
// the drift thresholds they run under, and the ingestion counters.
type streamRegistry struct {
	max        int
	thresholds stream.Thresholds

	mu      sync.Mutex
	ll      *list.List
	streams map[string]*list.Element

	events, batches, invalidations atomic.Uint64
}

func newStreamRegistry(max int, thresholds stream.Thresholds) *streamRegistry {
	if max < 1 {
		max = 1
	}
	return &streamRegistry{
		max:        max,
		thresholds: thresholds,
		ll:         list.New(),
		streams:    make(map[string]*list.Element),
	}
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

// getOrCreate returns the stream for the fingerprint, creating it on
// first use with base's parameters as the drift baseline. Creation may
// evict the least recently used stream beyond the registry bound.
func (r *streamRegistry) getOrCreate(fp string, base *modelEntry) *ingestStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	if elem, ok := r.streams[fp]; ok {
		r.ll.MoveToFront(elem)
		return elem.Value.(*ingestStream)
	}
	st := &ingestStream{
		fingerprint: fp,
		est:         stream.NewEstimator(stream.Options{}),
		baseline:    stream.NewBaseline(base.env, base.flows),
	}
	r.streams[fp] = r.ll.PushFront(st)
	for r.ll.Len() > r.max {
		back := r.ll.Back()
		old := back.Value.(*ingestStream)
		r.ll.Remove(back)
		delete(r.streams, old.fingerprint)
	}
	return st
}

// observe feeds one event batch to st and scores it against st's
// baseline. crossed reports this batch's threshold crossing, which bumps
// the stream to rebuild generation gen.
func (r *streamRegistry) observe(st *ingestStream, recs []audit.Record) (score stream.Score, crossed bool, gen uint64) {
	st.est.ObserveBatch(recs)
	r.events.Add(uint64(len(recs)))
	r.batches.Add(1)
	score = st.est.ScoreAgainst(st.currentBaseline(), r.thresholds)
	crossed, gen = st.noteScore(score, r.thresholds)
	if crossed {
		r.invalidations.Add(1)
	}
	return score, crossed, gen
}

func (r *streamRegistry) stats(resp *StatsResponse) {
	resp.Ingest = IngestStatsJSON{
		Streams:       len(r.snapshot()),
		Events:        r.events.Load(),
		Batches:       r.batches.Load(),
		Invalidations: r.invalidations.Load(),
	}
}

// writeMetrics writes the latest drift score of every stream.
func (r *streamRegistry) writeMetrics(p *promWriter) {
	streams := r.snapshot()
	if len(streams) == 0 {
		return
	}
	p.family("wfmsd_drift_score", "gauge", "Latest drift score by system fingerprint and dimension.")
	for _, st := range streams {
		score, _, _, _ := st.snapshot()
		fp := label("fingerprint", st.fingerprint)
		p.sample("wfmsd_drift_score", score.Transition, fp, label("dimension", "transition"))
		p.sample("wfmsd_drift_score", score.Residence, fp, label("dimension", "residence"))
		p.sample("wfmsd_drift_score", score.Service, fp, label("dimension", "service"))
		p.sample("wfmsd_drift_score", score.Arrival, fp, label("dimension", "arrival"))
	}
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

// streamFor resolves the ingestion stream of a fingerprint, creating it
// on first contact if a warm model with that fingerprint is resident
// (the model supplies the drift baseline). Without one the client must
// POST /v1/assess first, which both validates the system and warms the
// model the events will be scored against.
func (s *Server) streamFor(fp string) (*ingestStream, error) {
	if st := s.streams.lookup(fp); st != nil {
		return st, nil
	}
	base := s.models.byFingerprint(fp)
	if base == nil {
		return nil, fmt.Errorf(
			"no warm model for fingerprint %q: POST the system to /v1/assess first, then stream its events", fp)
	}
	return s.streams.getOrCreate(fp, base), nil
}

// minRecordBytes is the body bytes a /v1/events batch is charged per
// record: MaxBodyBytes/minRecordBytes records is the most one batch may
// decode to. A trail line the simulator writes is about 123 bytes.
const minRecordBytes = 32

// recordBufs and bodyBufs recycle handleEvents' buffers, but not one an
// outsized batch grew past maxPooledRecords or maxPooledBody. A record
// buffer goes back cleared, so no record string outlives its request; no
// record aliases a body buffer.
const maxPooledRecords, maxPooledBody = 16 << 10, 1 << 20

var recordBufs = sync.Pool{New: func() any { return new([]audit.Record) }}
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

func putRecords(buf *[]audit.Record, recs []audit.Record) {
	clear(recs)
	if cap(recs) > maxPooledRecords {
		return
	}
	*buf = recs[:0]
	recordBufs.Put(buf)
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
	tooLarge := func(limit int64, unit string) error {
		return wfmserr.New(wfmserr.CodePayloadTooLarge, "server",
			"event batch exceeds the %d-%s limit; split it into smaller batches", limit, unit)
	}
	// What can be refused without reading the body is refused first: a
	// declared length over the limit, then a fingerprint with no warm
	// model — parsing megabytes of records to answer 404 is wasted work.
	if r.ContentLength > maxBytes {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, tooLarge(maxBytes, "byte"))
		return
	}
	st, err := s.streamFor(fp)
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, err)
		return
	}
	// The body is read whole before a line is decoded, so one over the
	// limit is 413 payload_too_large whatever it holds. A declared length
	// is a claim: past maxPooledBody the buffer grows as bytes arrive. The
	// record limit bounds what a body under the byte limit decodes to.
	bp := bodyBufs.Get().(*[]byte)
	body := bytes.NewBuffer((*bp)[:0])
	if r.ContentLength > 0 {
		body.Grow(int(min(r.ContentLength, maxPooledBody)) + bytes.MinRead)
	}
	_, err = body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes))
	maxRecords := max(int(maxBytes/minRecordBytes), 1)
	buf := recordBufs.Get().(*[]audit.Record)
	recs := (*buf)[:0]
	if err == nil {
		recs, err = audit.DecodeRecords(recs, body.Bytes(), maxRecords)
	}
	if b := body.Bytes(); cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
	defer putRecords(buf, recs)
	if err != nil {
		var maxErr *http.MaxBytesError
		switch {
		case errors.As(err, &maxErr):
			err = tooLarge(maxErr.Limit, "byte")
		case errors.Is(err, audit.ErrTooManyRecords):
			err = tooLarge(int64(maxRecords), "record")
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
	ctx, cancel := s.deadline(r.Context(), 0)
	defer cancel()
	if err := s.sem.Acquire(ctx, 1); err != nil {
		s.writeError(w, r, statusForError(err), err)
		return
	}
	defer s.sem.Release(1)

	score, crossed, gen := s.streams.observe(st, recs)
	invalidated := 0
	if crossed {
		invalidated = s.models.invalidateFingerprint(fp)
		s.opts.Logger.Info("drift detected: invalidating warm models",
			"fingerprint", fp, "score", score.String(), "generation", gen, "entries", invalidated)
		// Hand the crossing to the reconfiguration controller (if one
		// is running and the system has a registered deployment): the
		// advisory loop re-plans from the recalibrated model.
		s.ctrl.notify(driftEvent{fingerprint: fp, generation: gen, score: score, at: time.Now()})
	}

	_, drifted, generation, _ := st.snapshot()
	s.writeJSON(w, http.StatusOK, EventsResponse{
		Fingerprint:   fp,
		Records:       len(recs),
		TotalEvents:   st.est.Events(),
		Dropped:       st.est.Dropped(),
		Drift:         scoreJSON(score),
		Drifted:       drifted,
		Generation:    generation,
		Invalidated:   crossed,
		Invalidations: generation,
		Evicted:       invalidated,
	})
}

// handleDrift reports the drift state of every ingestion stream (or of
// one system via the fingerprint query parameter).
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	want := strings.TrimSpace(r.URL.Query().Get("fingerprint"))
	resp := DriftResponse{Thresholds: DriftThresholdsJSON(s.streams.thresholds)}
	for _, st := range s.streams.snapshot() {
		if want != "" && st.fingerprint != want {
			continue
		}
		score, drifted, generation, batches := st.snapshot()
		resp.Streams = append(resp.Streams, DriftStreamJSON{
			Fingerprint:   st.fingerprint,
			Events:        st.est.Events(),
			Batches:       batches,
			Dropped:       st.est.Dropped(),
			InFlight:      st.est.InFlight(),
			Score:         scoreJSON(score),
			MaxScore:      Float(score.Max()),
			Drifted:       drifted,
			Generation:    generation,
			Invalidations: generation,
		})
	}
	if want != "" && len(resp.Streams) == 0 {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("no ingestion stream for fingerprint %q", want))
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// recalibrated derives the generation-N system of a drifted stream: the posted document's workflows rewritten with the stream's
// current estimates. The posted inputs are cloned — estimates apply to
// private copies, never to request- or cache-shared state. On any
// estimation failure the posted system is returned unchanged (with the
// error, for logging): a drifted model that cannot be re-estimated must
// degrade to designer parameters, not fail the request; the next drift
// crossing retries.
func (st *ingestStream) recalibrated(env *spec.Environment, flows []*spec.Workflow) (*spec.Environment, []*spec.Workflow, error) {
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
