package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"performa/internal/wfjson"
)

// TestCacheSingleFlightSurvivesOverflow is the regression test for the
// single-flight violation: an entry still building could be evicted by
// LRU overflow, detaching it from the key map, so a concurrent request
// for the same key missed and silently started a duplicate build. The
// fix pins not-yet-ready entries against eviction (the cache may exceed
// max transiently) and reclaims the overflow once the build completes.
func TestCacheSingleFlightSurvivesOverflow(t *testing.T) {
	c := newModelCache(2, testLogger())
	ctx := context.Background()

	release := make(chan struct{})
	started := make(chan struct{})
	var slowBuilds, duplicateBuilds atomic.Int32

	firstDone := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild(ctx, "slow", func(e *modelEntry) error {
			slowBuilds.Add(1)
			close(started)
			<-release
			return nil
		})
		firstDone <- err
	}()
	<-started

	// Overflow the cache well past max while the slow build is in
	// flight. Before the fix this evicted the building "slow" entry.
	for i := 0; i < 5; i++ {
		if _, _, err := c.getOrBuild(ctx, fmt.Sprintf("filler-%d", i), func(e *modelEntry) error { return nil }); err != nil {
			t.Fatalf("filler build %d: %v", i, err)
		}
	}

	// A second request for the slow key must join the in-flight build,
	// never run its own build function.
	secondDone := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild(ctx, "slow", func(e *modelEntry) error {
			duplicateBuilds.Add(1)
			return nil
		})
		secondDone <- err
	}()

	// Give the second request a moment to either (correctly) block on
	// the shared entry or (buggy) finish a duplicate build.
	select {
	case <-secondDone:
		t.Fatalf("second request completed while the original build was still in flight (duplicate builds: %d)", duplicateBuilds.Load())
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	for _, ch := range []chan error{firstDone, secondDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("getOrBuild: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request did not complete after build release")
		}
	}

	if got := slowBuilds.Load(); got != 1 {
		t.Errorf("slow key built %d times, want 1", got)
	}
	if got := duplicateBuilds.Load(); got != 0 {
		t.Errorf("duplicate build function ran %d times, want 0 (single-flight violated)", got)
	}
	if got := c.len(); got > 2 {
		t.Errorf("cache holds %d entries after builds settled, want <= max (2)", got)
	}
	if hits := c.hits.Load(); hits == 0 {
		t.Errorf("second request should have counted as a hit, hits = %d", hits)
	}
}

// TestCacheOverflowWithOnlyBuildingEntries pins the transient-overflow
// behavior: when every resident entry is still building, nothing is
// evictable and the cache grows past max rather than breaking any
// in-flight single-flight; the overflow drains as builds finish.
func TestCacheOverflowWithOnlyBuildingEntries(t *testing.T) {
	c := newModelCache(1, testLogger())
	ctx := context.Background()
	release := make(chan struct{})
	var wg []chan error
	for i := 0; i < 3; i++ {
		started := make(chan struct{})
		done := make(chan error, 1)
		wg = append(wg, done)
		key := fmt.Sprintf("k%d", i)
		go func() {
			_, _, err := c.getOrBuild(ctx, key, func(e *modelEntry) error {
				close(started)
				<-release
				return nil
			})
			done <- err
		}()
		<-started
	}
	if got := c.len(); got != 3 {
		t.Fatalf("cache holds %d entries with 3 pinned builds, want 3", got)
	}
	close(release)
	for _, done := range wg {
		if err := <-done; err != nil {
			t.Fatalf("getOrBuild: %v", err)
		}
	}
	if got := c.len(); got > 1 {
		t.Errorf("cache holds %d entries after builds settled, want <= max (1)", got)
	}
}

// TestInvalidDocumentNeverTouchesCache: a warm hit is looked up by the
// fingerprint of the posted document before FromDocument validates it,
// so an invalid document in canonical form must still get FromDocument's
// 400, word for word, and must neither build, count a miss nor evict.
// With room for two models, two warm systems stay warm through ten
// invalid posts, singly and as a batch.
func TestInvalidDocumentNeverTouchesCache(t *testing.T) {
	paper, _ := paperSystem(t)
	plan, _ := planSearchSystem(t)
	s, ts := newTestServer(t, Options{CacheSize: 2})
	goals := GoalsJSON{MaxUnavailability: 1e-5}
	warm := []AssessRequest{
		{System: paper, Config: []int{2, 2, 3}, Goals: goals},
		{System: plan, Config: []int{2, 2, 2, 2, 2, 2, 2}, Goals: goals},
	}
	for _, req := range warm {
		if status := postJSON(t, ts.URL+"/v1/assess", req, nil); status != http.StatusOK {
			t.Fatalf("warming: status %d", status)
		}
	}
	var before StatsResponse
	s.models.stats(&before)

	invalid := []struct {
		name   string
		mutate func(d *wfjson.Document)
	}{
		{"transition to an unknown state", func(d *wfjson.Document) { d.Workflows[0].Chart.Transitions[0].To = "nowhere" }},
		{"initial state missing", func(d *wfjson.Document) { d.Workflows[0].Chart.Initial = "nowhere" }},
		{"probabilities not summing to one", func(d *wfjson.Document) { d.Workflows[0].Chart.Transitions[0].Prob = 0.5 }},
		{"negative arrival rate", func(d *wfjson.Document) { d.Workflows[0].ArrivalRate = -1 }},
		{"zero mean service", func(d *wfjson.Document) { d.Environment.Types[0].MeanService = 0 }},
		{"duplicate server type", func(d *wfjson.Document) { d.Environment.Types[1].Name = d.Environment.Types[0].Name }},
		{"failing server without repair", func(d *wfjson.Document) { d.Environment.Types[0].MTTR = 0 }},
		{"load on an unknown type", func(d *wfjson.Document) { d.Workflows[0].Activities[0].Load = map[string]float64{"nowhere": 1} }},
		{"negative mean duration", func(d *wfjson.Document) { d.Workflows[0].Activities[0].MeanDuration = -1 }},
		{"no workflows", func(d *wfjson.Document) { d.Workflows = nil }},
	}
	raw := mustJSON(t, paper)
	var batch AssessBatchRequest
	var wantErrs []string
	for _, c := range invalid {
		var doc wfjson.Document
		if err := json.Unmarshal([]byte(raw), &doc); err != nil {
			t.Fatal(err)
		}
		c.mutate(&doc)
		if _, ok := wfjson.FingerprintDocument(&doc); !ok {
			t.Fatalf("%s: canonicalisation refused the document, so the cache lookup goes untested", c.name)
		}
		_, _, want := wfjson.FromDocument(&doc)
		if want == nil {
			t.Fatalf("%s: FromDocument accepts the document", c.name)
		}
		wantErrs = append(wantErrs, want.Error())
		req := AssessRequest{System: doc, Config: []int{2, 2, 3}, Goals: goals}
		status, e := postRaw(t, ts.URL+"/v1/assess", mustJSON(t, req))
		if status != http.StatusBadRequest || e.Error != want.Error() {
			t.Errorf("%s: %d %q, want 400 %q", c.name, status, e.Error, want)
		}
		batch.Items = append(batch.Items, AssessBatchItem{System: doc, Config: req.Config, Goals: goals})
	}
	var resp AssessBatchResponse
	if status := postJSON(t, ts.URL+"/v1/assess-batch", batch, &resp); status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if resp.Groups != 0 || resp.ModelBuilds != 0 || resp.CacheWarm != 0 {
		t.Errorf("invalid batch: groups %d, builds %d, warm %d; want none", resp.Groups, resp.ModelBuilds, resp.CacheWarm)
	}
	for i, it := range resp.Items {
		if it.Error == nil || it.Error.Error != wantErrs[i] {
			t.Errorf("batch item %d (%s): error %+v, want %q", i, invalid[i].name, it.Error, wantErrs[i])
		}
	}

	var after StatsResponse
	s.models.stats(&after)
	if after.ModelCache.Misses != before.ModelCache.Misses || after.ModelCache.Evictions != 0 || after.ModelCache.Size != 2 {
		t.Errorf("cache after invalid posts: %+v, before %+v", after.ModelCache, before.ModelCache)
	}
	for _, req := range warm {
		var got AssessResponse
		if status := postJSON(t, ts.URL+"/v1/assess", req, &got); status != http.StatusOK || !got.CacheWarm {
			t.Errorf("warm system after invalid posts: status %d, cache_warm %v", status, got.CacheWarm)
		}
	}
}
