package server

import (
	"container/list"
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/stream"
	"performa/internal/wfjson"
)

// modelEntry is one warm system model: the analysis built from a
// decoded wfjson document plus the shared performability evaluator
// (which owns the availability-marginal cache) every request over the same system routes through. Entries are
// immutable once ready; the evaluator inside is concurrency-safe.
type modelEntry struct {
	// key is the cache key: the wfjson system fingerprint extended with
	// the evaluation options (a different saturation policy or repair
	// discipline produces different numbers, so it must not share warm
	// state with another policy).
	key string
	// fingerprint is the bare system fingerprint, echoed to clients.
	fingerprint string

	env      *spec.Environment
	flows    []*spec.Workflow
	analysis *perf.Analysis
	ev       *performability.Evaluator

	// collapsedTurn snapshots each flow's collapsed mean turnaround at
	// build time; clampedStages is the build's stage-clamp diagnostic
	// (how many collapsed subworkflows hit the Erlang stage cap).
	collapsedTurn []float64
	clampedStages int

	// netOnce lazily memoizes the net-oracle turnaround section on the
	// first model.turnaround="net" request over this entry — the exact
	// expected execution times are pure functions of the system, so one
	// marking-graph solve serves every later request. This is the only
	// post-ready mutation of an entry, and the Once guards it.
	netOnce sync.Once
	netTurn *TurnaroundJSON
	netErr  error

	ready chan struct{} // closed once build finished (ok or not)
	err   error         // build error, set before ready closes
}

// assess evaluates a replica vector against goals on the entry's warm
// evaluator.
func (e *modelEntry) assess(ctx context.Context, replicas []int, goals config.Goals, popts performability.Options) (*config.Assessment, error) {
	return config.AssessContext(ctx, e.analysis, perf.Config{Replicas: replicas}, goals, config.Options{Performability: popts, Evaluator: e.ev})
}

// modelCache is a bounded LRU of warm model entries keyed by
// (system fingerprint, evaluation options). Concurrent requests for the
// same key share one build: later arrivals block on the entry's ready
// channel instead of solving the models again.
type modelCache struct {
	max int
	log *slog.Logger

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions atomic.Uint64
	// clamped counts stage-clamped subworkflow collapses across cold
	// builds (see noteClamped).
	clamped atomic.Uint64
}

func newModelCache(max int, log *slog.Logger) *modelCache {
	if max < 1 {
		max = 1
	}
	return &modelCache{
		max:     max,
		log:     log,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// entryKey derives the cache key for a system fingerprint under the
// given evaluation options.
func entryKey(fingerprint string, opts performability.Options) string {
	return fmt.Sprintf("%s|policy=%d|penalty=%g|discipline=%d",
		fingerprint, opts.Policy, opts.PenaltyValue, opts.Discipline)
}

// getOrBuild returns the warm entry for the key, building it via build
// exactly once per residency. The ctx only bounds the wait for a
// concurrent builder — the build itself is not canceled, since its
// result is shared by every waiter.
func (c *modelCache) getOrBuild(ctx context.Context, key string, build func(*modelEntry) error) (*modelEntry, bool, error) {
	c.mu.Lock()
	if elem, ok := c.entries[key]; ok {
		c.ll.MoveToFront(elem)
		c.mu.Unlock()
		e := elem.Value.(*modelEntry)
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			return nil, false, e.err
		}
		c.hits.Add(1)
		return e, true, nil
	}
	e := &modelEntry{key: key, ready: make(chan struct{})}
	elem := c.ll.PushFront(e)
	c.entries[key] = elem
	c.evictOverflow()
	c.mu.Unlock()

	c.misses.Add(1)
	e.err = build(e)
	close(e.ready)
	if e.err != nil {
		// Failed builds must not be served to later requests.
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == elem {
			c.ll.Remove(elem)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, false, e.err
	}
	c.noteClamped(e)
	// The entry is ready and therefore evictable again; reclaim any
	// overflow its pinned residency deferred.
	c.mu.Lock()
	c.evictOverflow()
	c.mu.Unlock()
	return e, false, nil
}

// noteClamped logs and counts a cold build whose subworkflow collapse
// clamped moment-matched stage counts: the collapsed chain's residence
// variance is floored at the Erlang cap, so downstream variance-derived
// quantities (not the means) are approximate for this system.
func (c *modelCache) noteClamped(e *modelEntry) {
	if e.clampedStages == 0 {
		return
	}
	c.clamped.Add(uint64(e.clampedStages))
	c.log.Warn("subworkflow collapse clamped Erlang stage expansion",
		"fingerprint", e.fingerprint, "clamped_stages", e.clampedStages)
}

// evictOverflow trims the cache back to max entries, least recently used
// first, skipping entries whose build is still in flight. Evicting a
// building entry would detach it from the key map while its builder
// still runs, so a concurrent request for the same key would miss and
// silently start a duplicate build — a single-flight violation (and,
// under sustained overflow, an unbounded amount of duplicated solver
// work). Pinned builders can push the resident count past max
// transiently; the overflow is reclaimed as their builds complete.
// Callers must hold c.mu.
func (c *modelCache) evictOverflow() {
	over := c.ll.Len() - c.max
	var next *list.Element
	for elem := c.ll.Back(); elem != nil && over > 0; elem = next {
		next = elem.Prev()
		e := elem.Value.(*modelEntry)
		select {
		case <-e.ready:
		default:
			continue // still building: pinned against eviction
		}
		c.ll.Remove(elem)
		delete(c.entries, e.key)
		c.evictions.Add(1)
		over--
	}
}

// invalidateFingerprint removes every ready entry built for the given
// system fingerprint (all evaluation-option and generation variants),
// returning how many were dropped. In-flight builds are skipped — they
// are pinned by the single-flight protocol; a stale in-flight build is
// keyed by an old generation, so the post-drift request simply misses
// past it to a fresh key. Used by drift-triggered invalidation: the
// next /v1/assess over the system rebuilds from fresh estimates.
func (c *modelCache) invalidateFingerprint(fp string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	var next *list.Element
	for elem := c.ll.Front(); elem != nil; elem = next {
		next = elem.Next()
		e := elem.Value.(*modelEntry)
		select {
		case <-e.ready:
		default:
			continue
		}
		if e.err == nil && e.fingerprint == fp {
			c.ll.Remove(elem)
			delete(c.entries, e.key)
			n++
		}
	}
	return n
}

// byFingerprint returns the most recently used ready entry built for
// the system fingerprint under any evaluation options, or nil.
func (c *modelCache) byFingerprint(fp string) *modelEntry {
	for _, e := range c.snapshot() {
		if e.fingerprint == fp {
			return e
		}
	}
	return nil
}

func (c *modelCache) stats(resp *StatsResponse) {
	resp.ModelCache.Size = c.len()
	resp.ModelCache.Max = c.max
	resp.ModelCache.Hits = c.hits.Load()
	resp.ModelCache.Misses = c.misses.Load()
	resp.ModelCache.Evictions = c.evictions.Load()
	resp.ClampedStages = c.clamped.Load()
	for _, e := range c.snapshot() {
		resp.Evaluators = append(resp.Evaluators, EvaluatorStatsJSON{
			Fingerprint: e.fingerprint,
			Marginals:   e.ev.Marginals().Size(),
		})
	}
}

// snapshot returns the resident entries, most recently used first.
func (c *modelCache) snapshot() []*modelEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*modelEntry, 0, c.ll.Len())
	for elem := c.ll.Front(); elem != nil; elem = elem.Next() {
		e := elem.Value.(*modelEntry)
		select {
		case <-e.ready:
			if e.err == nil {
				out = append(out, e)
			}
		default: // still building
		}
	}
	return out
}

// len returns the number of resident entries.
func (c *modelCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// buildEntry decodes nothing — the document is already decoded — it
// derives the analysis and warm evaluator for a validated system.
func buildEntry(e *modelEntry, fingerprint string, env *spec.Environment, flows []*spec.Workflow, opts performability.Options) error {
	models := make([]*spec.Model, 0, len(flows))
	for _, w := range flows {
		m, err := spec.Build(w, env)
		if err != nil {
			return err
		}
		models = append(models, m)
	}
	analysis, err := perf.NewAnalysis(env, models)
	if err != nil {
		return err
	}
	ev, err := performability.NewEvaluator(analysis, opts)
	if err != nil {
		return err
	}
	e.fingerprint = fingerprint
	e.env = env
	e.flows = flows
	e.analysis = analysis
	e.ev = ev
	e.collapsedTurn = make([]float64, len(models))
	for i, m := range models {
		e.collapsedTurn[i] = m.Turnaround()
		e.clampedStages += m.ClampedStages()
	}
	return nil
}

// resolveEntry decodes and fingerprints the request's system document
// and returns the warm (or freshly built) model entry for it.
//
// When the system's ingestion stream has detected drift, the entry key
// carries the stream's rebuild generation and the build recalibrates
// the posted document with the streamed estimates before deriving the
// models — the drift-triggered half of the paper's feedback loop. The
// entry keeps the posted fingerprint, so clients keep addressing the
// system by the document they posted.
func (s *Server) resolveEntry(ctx context.Context, doc *wfjson.Document, opts performability.Options) (*modelEntry, bool, error) {
	env, flows, err := wfjson.FromDocument(doc)
	if err != nil {
		return nil, false, err
	}
	fp, err := wfjson.Fingerprint(env, flows)
	if err != nil {
		return nil, false, err
	}
	return s.resolveDecoded(ctx, env, flows, fp, opts)
}

// resolveDecoded is resolveEntry after decode and fingerprinting — the
// entry point for batch items, whose documents are decoded up front so
// they can be grouped by fingerprint before any model is built. The
// returned bool is true iff the entry was already resident (this call
// neither built nor waited on a build it started).
func (s *Server) resolveDecoded(ctx context.Context, env *spec.Environment, flows []*spec.Workflow, fp string, opts performability.Options) (*modelEntry, bool, error) {
	key := entryKey(fp, opts)
	var gen uint64
	st := s.streams.lookup(fp)
	if st != nil {
		_, _, gen, _ = st.snapshot()
	}
	if gen > 0 {
		key = fmt.Sprintf("%s|gen=%d", key, gen)
	}
	entry, warm, err := s.models.getOrBuild(ctx, key, func(e *modelEntry) error {
		benv, bflows := env, flows
		if gen > 0 {
			var rerr error
			benv, bflows, rerr = st.recalibrated(env, flows)
			if rerr != nil {
				// A drifted model that cannot be re-estimated degrades to
				// the posted parameters instead of failing the request;
				// the next drift crossing bumps the generation and
				// retries.
				s.opts.Logger.Warn("drift recalibration failed; building from posted document",
					"fingerprint", fp, "err", rerr)
			}
		}
		return buildEntry(e, fp, benv, bflows, opts)
	})
	if err != nil {
		return nil, false, err
	}
	if gen > 0 && !warm {
		// A fresh post-drift build defines the new comparison point:
		// drift is re-armed against the recalibrated parameters.
		st.rebaseline(stream.NewBaseline(entry.env, entry.flows), gen)
	}
	return entry, warm, nil
}
