package server

// Batch serving: POST /v1/assess-batch and /v1/recommend-batch accept a
// slice of items and amortize warm-model builds across them. Items are
// decoded and fingerprinted up front, grouped by (fingerprint,
// evaluation options), and evaluated through the same single-flight
// model cache the singleton endpoints use — so N items sharing a
// fingerprint trigger exactly one model build no matter how they are
// interleaved, and a batch riding over an already-warm system builds
// nothing at all. One batch takes one admission pass whose token weight
// scales with the item count (capped at the machine's worker budget),
// keeping the weighted FIFO semaphore the single arbiter of planner
// concurrency.

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
)

// batchWeight is the admission-token weight of a batch of n items: one
// planner slot's width per item up to the whole worker budget, so small
// batches queue like a few singletons and large ones take the machine —
// FIFO fairness then prevents them from starving interactive requests
// behind them.
func (s *Server) batchWeight(n int) int {
	w := s.perRequest * n
	if w > s.workers || w < 0 { // < 0: overflow on absurd n
		w = s.workers
	}
	if w < s.perRequest {
		w = s.perRequest
	}
	return w
}

// validateBatchSize rejects empty and oversized batches with typed
// errors.
func (s *Server) validateBatchSize(n int) error {
	if n == 0 {
		return wfmserr.New(wfmserr.CodeInvalidRequest, "server", "empty batch: items must carry at least one entry")
	}
	if n > s.maxBatchItems {
		return wfmserr.New(wfmserr.CodeInvalidRequest, "server",
			"batch of %d items exceeds the %d-item limit; split it", n, s.maxBatchItems).
			With("items", n).With("max_items", s.maxBatchItems)
	}
	return nil
}

// batchItem is the decoded, fingerprinted form of one batch entry,
// ready for grouping.
type batchItem struct {
	env   *spec.Environment
	flows []*spec.Workflow
	fp    string
	popts performability.Options
	err   error // decode/validation failure; item is skipped
}

// decodeItem decodes and fingerprints one item's system under its
// effective model options (the item's own, else the batch default).
func decodeItem(doc *wfjson.Document, model *ModelJSON, batchDefault ModelJSON) batchItem {
	eff := batchDefault
	if model != nil {
		eff = *model
	}
	popts, err := eff.toOptions()
	if err != nil {
		return batchItem{err: err}
	}
	if err := rejectNetTurnaround(eff); err != nil {
		return batchItem{err: err}
	}
	env, flows, err := wfjson.FromDocument(doc)
	if err != nil {
		return batchItem{err: err}
	}
	fp, err := wfjson.Fingerprint(env, flows)
	if err != nil {
		return batchItem{err: err}
	}
	return batchItem{env: env, flows: flows, fp: fp, popts: popts}
}

// countGroups counts the distinct (fingerprint, options) groups among
// the decodable items — the number of model resolutions the batch needs.
func countGroups(items []batchItem) int {
	seen := make(map[string]struct{}, len(items))
	for _, it := range items {
		if it.err != nil {
			continue
		}
		seen[entryKey(it.fp, it.popts)] = struct{}{}
	}
	return len(seen)
}

// itemError converts a per-item failure into its wire form with the
// same code taxonomy as the singleton endpoints.
func itemError(err error, status int) *ErrorResponse {
	return &ErrorResponse{Error: err.Error(), Code: errorCode(status, err)}
}

// forEachItem runs fn over the item indices with at most par concurrent
// workers — the batch's internal fan-out under the tokens the batch
// already holds.
func forEachItem(n, par int, fn func(i int)) {
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func (s *Server) handleAssessBatch(w http.ResponseWriter, r *http.Request) {
	var req AssessBatchRequest
	if err := s.decodeBody(w, r, &req, nil); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	if err := validateTimeout(req.TimeoutMillis); err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	if err := s.validateBatchSize(len(req.Items)); err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	n := len(req.Items)
	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()
	weight := s.batchWeight(n)
	release, err := s.admitTenant(ctx, s.tenantOf(r, req.Tenant), weight)
	if err != nil {
		s.writeError(w, r, quotaStatus(err), err)
		return
	}
	defer release()

	began := time.Now()
	items := make([]batchItem, n)
	for i := range req.Items {
		items[i] = decodeItem(&req.Items[i].System, req.Items[i].Model, req.Model)
	}
	// Fan out over items under the batch's token weight: itemPar items
	// run concurrently, each with its share of the weight as its
	// evaluator pool. The single-flight cache serializes cold builds per
	// group, so concurrent items of one group cost one build.
	itemPar := weight
	if itemPar > n {
		itemPar = n
	}
	itemWorkers := weight / itemPar
	if itemWorkers < 1 {
		itemWorkers = 1
	}
	results := make([]AssessBatchItemJSON, n)
	var builds, warmHits atomic.Uint64
	forEachItem(n, itemPar, func(i int) {
		out := &results[i]
		out.Index = i
		it := items[i]
		if it.err != nil {
			out.Error = itemError(it.err, http.StatusBadRequest)
			return
		}
		entry, warm, err := s.resolveDecoded(ctx, it.env, it.flows, it.fp, it.popts)
		if err != nil {
			out.Error = itemError(err, badRequestOr(err))
			return
		}
		if warm {
			warmHits.Add(1)
		} else {
			builds.Add(1)
		}
		as, err := config.AssessContext(ctx, entry.analysis, perf.Config{Replicas: req.Items[i].Config}, req.Items[i].Goals.toGoals(), config.Options{
			Performability: it.popts,
			Workers:        itemWorkers,
			Evaluator:      entry.ev,
		})
		if err != nil {
			out.Error = itemError(err, statusForError(err))
			return
		}
		a := assessmentJSON(as)
		out.Fingerprint = entry.fingerprint
		out.ServerTypes = typeNames(entry)
		out.Assessment = &a
		out.CacheWarm = warm
	})
	s.batchItems.Add(uint64(n))
	s.batchBuilds.Add(builds.Load())
	s.writeJSON(w, http.StatusOK, AssessBatchResponse{
		Items:       results,
		Groups:      countGroups(items),
		ModelBuilds: int(builds.Load()),
		CacheWarm:   int(warmHits.Load()),
		ElapsedMS:   float64(time.Since(began).Microseconds()) / 1e3,
	})
}

func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	var req RecommendBatchRequest
	if err := s.decodeBody(w, r, &req, nil); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	if err := validateTimeout(req.TimeoutMillis); err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	if err := s.validateBatchSize(len(req.Items)); err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	n := len(req.Items)
	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()
	weight := s.batchWeight(n)
	release, err := s.admitTenant(ctx, s.tenantOf(r, req.Tenant), weight)
	if err != nil {
		s.writeError(w, r, quotaStatus(err), err)
		return
	}
	defer release()

	began := time.Now()
	items := make([]batchItem, n)
	planners := make([]string, n)
	for i := range req.Items {
		items[i] = decodeItem(&req.Items[i].System, req.Items[i].Model, req.Model)
		if items[i].err == nil {
			planners[i], items[i].err = validatePlanner(req.Items[i].Planner)
		}
	}
	itemPar := weight
	if itemPar > n {
		itemPar = n
	}
	itemWorkers := weight / itemPar
	if itemWorkers < 1 {
		itemWorkers = 1
	}
	results := make([]RecommendBatchItemJSON, n)
	var builds, warmHits atomic.Uint64
	forEachItem(n, itemPar, func(i int) {
		out := &results[i]
		out.Index = i
		it := items[i]
		if it.err != nil {
			out.Error = itemError(it.err, http.StatusBadRequest)
			return
		}
		entry, warm, err := s.resolveDecoded(ctx, it.env, it.flows, it.fp, it.popts)
		if err != nil {
			out.Error = itemError(err, badRequestOr(err))
			return
		}
		if warm {
			warmHits.Add(1)
		} else {
			builds.Add(1)
		}
		itemReq := &RecommendRequest{
			Goals:       req.Items[i].Goals,
			Constraints: req.Items[i].Constraints,
			Annealing:   req.Items[i].Annealing,
		}
		rec, err := s.runRecommend(ctx, entry, warm, planners[i], itemReq, it.popts, itemWorkers)
		if err != nil {
			out.Error = itemError(err, statusForError(err))
			return
		}
		out.Recommendation = rec
	})
	s.batchItems.Add(uint64(n))
	s.batchBuilds.Add(builds.Load())
	s.writeJSON(w, http.StatusOK, RecommendBatchResponse{
		Items:       results,
		Groups:      countGroups(items),
		ModelBuilds: int(builds.Load()),
		CacheWarm:   int(warmHits.Load()),
		ElapsedMS:   float64(time.Since(began).Microseconds()) / 1e3,
	})
}
