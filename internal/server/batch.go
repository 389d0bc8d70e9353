package server

// Batch serving: POST /v1/assess-batch and /v1/recommend-batch accept a
// slice of items and amortize warm-model builds across them. Items are
// fingerprinted up front and evaluated through the same single-flight
// model cache the singleton endpoints use — so N items sharing a
// fingerprint trigger exactly one model build no matter how they are
// interleaved, and a batch riding over an already-warm system builds
// nothing at all. One batch takes one admission pass whose token weight
// is the number of items it runs at once (capped at the worker budget),
// keeping the weighted FIFO semaphore the single arbiter of planner
// concurrency.

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/wfjson"
	"performa/internal/wfmserr"
)

// batchCounters counts the batch endpoints' items and the cold model
// builds they performed.
type batchCounters struct {
	items, builds atomic.Uint64
}

func (b *batchCounters) note(items int, builds uint64) {
	b.items.Add(uint64(items))
	b.builds.Add(builds)
}

func (b *batchCounters) stats(resp *StatsResponse) {
	resp.Batch = BatchStatsJSON{Items: b.items.Load(), Builds: b.builds.Load()}
}

// decodeItem fingerprints one system under its effective model options
// (model, else the batch default): a batch item, a deployment or a
// calibration.
func decodeItem(doc *wfjson.Document, model *ModelJSON, batchDefault ModelJSON) system {
	eff := batchDefault
	if model != nil {
		eff = *model
	}
	popts, err := eff.toOptions()
	if err != nil {
		return system{err: err}
	}
	sys := system{doc: doc, popts: popts}
	sys.fingerprint()
	return sys
}

// itemError converts a per-item failure into its wire form with the
// same code taxonomy as the singleton endpoints.
func itemError(err error, status int) *ErrorResponse {
	return &ErrorResponse{Error: err.Error(), Code: errorCode(status, err)}
}

// forEachItem runs fn over the item indices with at most par concurrent
// workers — the batch's internal fan-out under the tokens the batch
// already holds. An item whose fn panics gets fail with a typed internal
// error; the other items still run.
func (s *Server) forEachItem(n, par int, fn func(i int), fail func(i int, err error)) {
	par = max(1, min(par, n))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer s.recoverPanic("batch item", func(err error) { fail(i, err) })
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// batchTotals are the response totals both batch replies carry.
type batchTotals struct {
	groups, builds, warm int
	elapsedMS            float64
}

// serveBatch is the one batch path, after the body is decoded: the
// envelope checks, the deadline, one admission pass, fingerprinting n
// items, the fan-out, the counters and the totals. decode fingerprints
// item i; work runs an item against its resolved model and returns the
// item's error, if any; fail records item i's error. ok is false iff
// the batch was refused, with the error response written.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, n int, timeoutMS int64,
	decode func(i int) system,
	work func(ctx context.Context, i int, it *system, entry *modelEntry, warm bool) error,
	fail func(i int, err *ErrorResponse),
) (t batchTotals, ok bool) {
	err := validateTimeout(timeoutMS)
	switch {
	case err != nil:
	case n == 0:
		err = wfmserr.New(wfmserr.CodeInvalidRequest, "server", "empty batch: items must carry at least one entry")
	case n > s.opts.MaxBatchItems:
		err = wfmserr.New(wfmserr.CodeInvalidRequest, "server",
			"batch of %d items exceeds the %d-item limit; split it", n, s.opts.MaxBatchItems).
			With("items", n).With("max_items", s.opts.MaxBatchItems)
	}
	if err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return t, false
	}
	ctx, cancel := s.deadline(r.Context(), timeoutMS)
	defer cancel()
	// The batch holds one token per item it runs at once: n (at least 1,
	// checked above) clamped to the worker budget, so a batch wider than
	// the budget is admitted at the budget's width, not refused.
	weight := min(n, s.opts.Workers)
	if err := s.sem.Acquire(ctx, weight); err != nil {
		s.writeError(w, r, statusForError(err), err)
		return t, false
	}
	defer s.sem.Release(weight)

	began := time.Now()
	items := make([]system, n)
	for i := range items {
		items[i] = decode(i)
	}
	// Fan out over items under the batch's token weight: weight items
	// run concurrently. The single-flight cache serializes cold builds
	// per group, so concurrent items of one group cost one build.
	var builds, warmHits atomic.Uint64
	s.forEachItem(n, weight, func(i int) {
		it := &items[i]
		if it.err != nil {
			fail(i, itemError(it.err, http.StatusBadRequest))
			return
		}
		entry, warm, err := s.resolve(ctx, it)
		if err != nil {
			fail(i, itemError(err, badRequestOr(err)))
			return
		}
		if warm {
			warmHits.Add(1)
		} else {
			builds.Add(1)
		}
		if err := work(ctx, i, it, entry, warm); err != nil {
			fail(i, itemError(err, statusForError(err)))
		}
	}, func(i int, err error) { fail(i, itemError(err, http.StatusInternalServerError)) })
	s.batches.note(n, builds.Load())
	// The groups are the model resolutions the valid items needed: their
	// distinct (fingerprint, options) keys. A document FromDocument
	// refused was found invalid while resolving.
	groups := make(map[string]bool, n)
	for i := range items {
		if items[i].err == nil {
			groups[entryKey(items[i].fp, items[i].popts, 0)] = true
		}
	}
	return batchTotals{
		groups:    len(groups),
		builds:    int(builds.Load()),
		warm:      int(warmHits.Load()),
		elapsedMS: float64(time.Since(began).Microseconds()) / 1e3,
	}, true
}

func (s *Server) handleAssessBatch(w http.ResponseWriter, r *http.Request) {
	var req AssessBatchRequest
	if err := s.decodeBody(w, r, &req, nil); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	results := make([]AssessBatchItemJSON, len(req.Items))
	t, ok := s.serveBatch(w, r, len(req.Items), req.TimeoutMillis,
		func(i int) system { return decodeItem(&req.Items[i].System, req.Items[i].Model, req.Model) },
		func(ctx context.Context, i int, it *system, entry *modelEntry, warm bool) error {
			as, err := entry.assess(ctx, req.Items[i].Config, req.Items[i].Goals.toGoals(), it.popts)
			if err != nil {
				return err
			}
			a := assessmentJSON(as)
			results[i] = AssessBatchItemJSON{Index: i, Fingerprint: entry.fingerprint, ServerTypes: typeNames(entry.env), Assessment: &a, CacheWarm: warm}
			return nil
		},
		func(i int, err *ErrorResponse) { results[i] = AssessBatchItemJSON{Index: i, Error: err} })
	if ok {
		s.writeJSON(w, http.StatusOK, AssessBatchResponse{Items: results, Groups: t.groups, ModelBuilds: t.builds, CacheWarm: t.warm, ElapsedMS: t.elapsedMS})
	}
}

func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	var req RecommendBatchRequest
	if err := s.decodeBody(w, r, &req, nil); err != nil {
		s.writeError(w, r, decodeStatus(err), err)
		return
	}
	results := make([]RecommendBatchItemJSON, len(req.Items))
	planners := make([]string, len(req.Items))
	t, ok := s.serveBatch(w, r, len(req.Items), req.TimeoutMillis,
		func(i int) system {
			it := decodeItem(&req.Items[i].System, req.Items[i].Model, req.Model)
			planner, err := validatePlanner(req.Items[i].Planner)
			// A document FromDocument refuses is reported before the planner.
			if err != nil && it.decode() == nil {
				it.err = err
			}
			planners[i] = planner
			return it
		},
		func(ctx context.Context, i int, it *system, entry *modelEntry, warm bool) error {
			itemReq := &RecommendRequest{Goals: req.Items[i].Goals, Constraints: req.Items[i].Constraints}
			rec, err := s.runRecommend(ctx, entry, warm, planners[i], itemReq, it.popts)
			if err != nil {
				return err
			}
			results[i] = RecommendBatchItemJSON{Index: i, Recommendation: rec}
			return nil
		},
		func(i int, err *ErrorResponse) { results[i] = RecommendBatchItemJSON{Index: i, Error: err} })
	if ok {
		s.writeJSON(w, http.StatusOK, RecommendBatchResponse{Items: results, Groups: t.groups, ModelBuilds: t.builds, CacheWarm: t.warm, ElapsedMS: t.elapsedMS})
	}
}
