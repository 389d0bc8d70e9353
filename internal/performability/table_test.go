package performability

import (
	"sync"
	"testing"

	"performa/internal/perf"
)

// TestTermTableBoundsWhatItKeeps: a term below tabulated replicas is
// reduced once per evaluator, one at or above it on every evaluation, so
// the table never holds more than k·tabulated terms.
func TestTermTableBoundsWhatItKeeps(t *testing.T) {
	a := analysis(t, failingEnv(t), 1)
	ev, err := NewEvaluator(a, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []int{1, tabulated - 1, tabulated, 3 * tabulated} {
		cfg := perf.Config{Replicas: []int{y, 2, 2}}
		first, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := ev.Stats()
		again, err := ev.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, cfg.String(), first, again)
		misses := ev.Stats().Sub(before).Misses
		switch stored := y < tabulated; {
		case stored && misses != 0:
			t.Errorf("y = %d: a repeated evaluation reduced %d levels, want 0 (the term is tabulated)", y, misses)
		case !stored && misses == 0:
			t.Errorf("y = %d: a repeated evaluation reduced no level, want the term reduced again (not stored)", y)
		}
	}
}

// TestTermTableConcurrentEvaluate: goroutines sharing one cold evaluator
// fill its term table while reading it, each walking the same 64
// configurations in its own order, and every result equals a fresh
// evaluator's bit for bit. Under -race this is the table's race check.
func TestTermTableConcurrentEvaluate(t *testing.T) {
	a := analysis(t, failingEnv(t), 1)
	opts := Options{Policy: Strict}
	var cfgs []perf.Config
	for y0 := 1; y0 <= 4; y0++ {
		for y1 := 1; y1 <= 4; y1++ {
			for y2 := 1; y2 <= 4; y2++ {
				cfgs = append(cfgs, perf.Config{Replicas: []int{y0, y1, y2}})
			}
		}
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if want[i], err = Evaluate(a, cfg, opts); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := NewEvaluator(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([][]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]*Result, len(cfgs))
			for n := range cfgs {
				i := (n*(2*g+1) + g) % len(cfgs)
				if got[g][i], errs[g] = ev.Evaluate(cfgs[i]); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range cfgs {
			assertResultsIdentical(t, cfgs[i].String(), want[i], got[g][i])
		}
	}
}
