package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
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
