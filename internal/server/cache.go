package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

	// clampedStages is the build's stage-clamp diagnostic (how many
	// collapsed subworkflows hit the Erlang stage cap).
	clampedStages int

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
// given evaluation options and drift generation (0 until the system's
// stream first drifts): resolve's lookup and its build share one key.
func entryKey(fingerprint string, opts performability.Options, gen uint64) string {
	key := fmt.Sprintf("%s|policy=%d|penalty=%g|discipline=%d",
		fingerprint, opts.Policy, opts.PenaltyValue, opts.Discipline)
	if gen > 0 {
		key = fmt.Sprintf("%s|gen=%d", key, gen)
	}
	return key
}

// getOrBuild returns the warm entry for the key, building it via build
// exactly once per residency; with a nil build it only looks, and a miss
// is (nil, false, nil). The ctx only bounds the wait for a concurrent
// builder — the build itself is not canceled, since its result is
// shared by every waiter.
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
	if build == nil {
		c.mu.Unlock()
		return nil, false, nil
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
	models, err := spec.BuildAll(flows, env)
	if err != nil {
		return err
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
	for _, m := range models {
		e.clampedStages += m.ClampedStages()
	}
	return nil
}

// system is a system on its way to a model: found by the digest of its
// posted bytes, or fingerprinted from its posted document, and decoded
// into spec objects only when a build, a deployment or a calibration
// needs them. A warm hit never decodes.
type system struct {
	doc   *wfjson.Document
	fp    string
	popts performability.Options
	env   *spec.Environment
	flows []*spec.Workflow
	err   error // options, fingerprint or FromDocument refusal

	// span is the posted document still undecoded, as decodeBody left it
	// in body, the request whose whole-body decode into dst words the
	// errors of a span parse refuses. parse clears all three.
	body, span []byte
	dst        any
}

// fingerprint fingerprints sys's document. A document canonicalisation
// refuses is decoded at once, for FromDocument's error or else
// Fingerprint's.
func (sys *system) fingerprint() {
	var ok bool
	if sys.fp, ok = wfjson.FingerprintDocument(sys.doc); !ok && sys.decode() == nil {
		sys.fp, sys.err = wfjson.Fingerprint(sys.env, sys.flows)
	}
}

// parse decodes the posted span into doc by wfjson.ParseDocument and,
// for a span outside its dialect, decodes the whole body with
// encoding/json instead, as decodeBody would have: a refusal is a
// request decode error, worded by encoding/json. Nothing is decoded
// twice on the parser's route, and the body is let go either way.
func (sys *system) parse() error {
	if sys.span == nil {
		return nil
	}
	body, span, dst := sys.body, sys.span, sys.dst
	sys.body, sys.span, sys.dst = nil, nil, nil
	if n, ok := wfjson.ParseDocument(span, sys.doc); ok && n == len(span) {
		return nil
	}
	*sys.doc = wfjson.Document{}
	return decodeStrict(body, nil, dst)
}

func (sys *system) decode() error {
	if sys.env == nil && sys.err == nil {
		sys.env, sys.flows, sys.err = wfjson.FromDocument(sys.doc)
	}
	return sys.err
}

// stream returns fp's ingestion stream, if any, and its drift
// generation: the one a model of fp is keyed and built under.
func (s *Server) stream(fp string) (*ingestStream, uint64) {
	st := s.streams.lookup(fp)
	if st == nil {
		return nil, 0
	}
	_, _, gen, _ := st.snapshot()
	return st, gen
}

// resolve returns the model entry for sys: the resident one when there
// is one (warm: this call neither built nor waited on a build it
// started), else one built from sys's spec objects, decoded only then,
// so a document FromDocument refuses never reaches the cache.
//
// A posted span is first taken for its own fingerprint: the digest of
// canonical bytes, the form json.Marshal gives a document ToDocument
// made, is the fingerprint, so if an entry is resident under that
// digest the span is byte for byte the canonical form of a document
// that built it (SHA-256 being collision-free, as every cache key
// already assumes), and the entry answers without the span being
// parsed. Any other span misses, costing a scan and a SHA-256 over it,
// and is parsed; if it is canonical (wfjson.IsCanonical, as a cold post
// of what clients send is), that digest is its fingerprint.
//
// When the system's ingestion stream has detected drift, the entry key
// carries the stream's rebuild generation and the build recalibrates
// the posted system with the streamed estimates before deriving the
// models — the drift-triggered half of the paper's feedback loop. The
// entry keeps the posted fingerprint, so clients keep addressing the
// system by the document they posted.
func (s *Server) resolve(ctx context.Context, sys *system) (*modelEntry, bool, error) {
	if sys.err != nil {
		return nil, false, sys.err
	}
	if sys.span != nil {
		sum := sha256.Sum256(sys.span)
		digest := hex.EncodeToString(sum[:])
		_, gen := s.stream(digest)
		if e, warm, err := s.models.getOrBuild(ctx, entryKey(digest, sys.popts, gen), nil); e != nil || err != nil {
			return e, warm, err
		}
		span := sys.span
		if err := sys.parse(); err != nil {
			return nil, false, err
		}
		if wfjson.IsCanonical(span, sys.doc) {
			sys.fp = digest
		}
	}
	if sys.fp == "" {
		if sys.fingerprint(); sys.err != nil {
			return nil, false, sys.err
		}
	}
	st, gen := s.stream(sys.fp)
	key := entryKey(sys.fp, sys.popts, gen)
	if e, warm, err := s.models.getOrBuild(ctx, key, nil); e != nil || err != nil {
		return e, warm, err
	}
	if err := sys.decode(); err != nil {
		return nil, false, err
	}
	entry, warm, err := s.models.getOrBuild(ctx, key, func(e *modelEntry) error {
		env, flows := sys.env, sys.flows
		if gen > 0 {
			var rerr error
			env, flows, rerr = st.recalibrated(sys.env, sys.flows)
			if rerr != nil {
				// A drifted model that cannot be re-estimated degrades to
				// the posted parameters instead of failing the request;
				// the next drift crossing bumps the generation and
				// retries.
				s.opts.Logger.Warn("drift recalibration failed; building from posted document",
					"fingerprint", sys.fp, "err", rerr)
			}
		}
		return buildEntry(e, sys.fp, env, flows, sys.popts)
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
