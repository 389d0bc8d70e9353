package server

// Batch serving: POST /v1/assess-batch and /v1/recommend-batch accept a
// slice of items and amortize warm-model builds across them. Items are
// decoded and fingerprinted up front, grouped by (fingerprint,
// evaluation options), and evaluated through the same single-flight
// model cache the singleton endpoints use — so N items sharing a
// fingerprint trigger exactly one model build no matter how they are
// interleaved, and a batch riding over an already-warm system builds
// nothing at all. One batch takes one admission pass whose token weight
// is the number of items it runs at once (admission.width: capped at the
// worker budget and the tenant budget), keeping the weighted FIFO
// semaphore the single arbiter of planner concurrency.

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/performability"
	"performa/internal/spec"
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

// batchItem is the decoded, fingerprinted form of one batch entry,
// ready for grouping.
type batchItem struct {
	env   *spec.Environment
	flows []*spec.Workflow
	fp    string
	popts performability.Options
	err   error // decode/validation failure; item is skipped
}

// decodeItem decodes and fingerprints one system under its effective
// model options (model, else the batch default): a batch item, a
// deployment or a calibration.
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
// envelope checks, the deadline, one admission pass for the tenant,
// decoding and fingerprinting n items, the fan-out, the counters and the
// totals. decode decodes item i; work runs a decoded item against its
// resolved model and returns the item's error, if any; fail records item
// i's error. ok is false iff the batch was refused, with the error
// response written.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, n int, timeoutMS int64, tenant string,
	decode func(i int) batchItem,
	work func(ctx context.Context, i int, it *batchItem, entry *modelEntry, warm bool) error,
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
	weight := s.admission.width(n)
	release, err := s.admission.acquire(ctx, tenantOf(r, tenant), weight)
	if err != nil {
		s.writeError(w, r, quotaStatus(err), err)
		return t, false
	}
	defer release()

	began := time.Now()
	items := make([]batchItem, n)
	groups := make(map[string]bool, n) // distinct (fingerprint, options) keys: the model resolutions needed
	for i := range items {
		if items[i] = decode(i); items[i].err == nil {
			groups[entryKey(items[i].fp, items[i].popts)] = true
		}
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
		entry, warm, err := s.resolveDecoded(ctx, it.env, it.flows, it.fp, it.popts)
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
	t, ok := s.serveBatch(w, r, len(req.Items), req.TimeoutMillis, req.Tenant,
		func(i int) batchItem { return decodeItem(&req.Items[i].System, req.Items[i].Model, req.Model) },
		func(ctx context.Context, i int, it *batchItem, entry *modelEntry, warm bool) error {
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
	t, ok := s.serveBatch(w, r, len(req.Items), req.TimeoutMillis, req.Tenant,
		func(i int) batchItem {
			it := decodeItem(&req.Items[i].System, req.Items[i].Model, req.Model)
			if it.err == nil {
				planners[i], it.err = validatePlanner(req.Items[i].Planner)
			}
			return it
		},
		func(ctx context.Context, i int, it *batchItem, entry *modelEntry, warm bool) error {
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
