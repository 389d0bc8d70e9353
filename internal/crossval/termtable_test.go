package crossval

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
)

// TestTermTableChangesNoNumber: the evaluator's term table is a memo,
// not a model. At the greedy answer (the generator's configuration, or
// two replicas per type, when greedy finds none) and each ±1 neighbour,
// a cold evaluator, the evaluator greedy warmed, and that evaluator
// again (every term now read from its table) return the same Result bit
// for bit, or the same error — on the corpus and 200 generated systems,
// under every saturation policy and both repair disciplines.
func TestTermTableChangesNoNumber(t *testing.T) {
	goals := config.Goals{MaxWaiting: 0.1, MaxUnavailability: 1e-6}
	evaluations := 0
	for _, sys := range termSystems(t) {
		for _, opts := range termOptions {
			warm, err := performability.NewEvaluator(sys.analysis, opts)
			if err != nil {
				t.Fatal(err)
			}
			anchor := sys.replicas
			if rec, err := config.Greedy(sys.analysis, goals, config.Constraints{}, config.Options{Performability: opts, Evaluator: warm}); err == nil {
				anchor = rec.Config.Replicas
			} else if anchor == nil {
				anchor = make([]int, sys.env.K())
				for x := range anchor {
					anchor[x] = 2
				}
			}
			candidates := [][]int{anchor}
			for x := range anchor {
				for _, d := range []int{-1, 1} {
					if y := anchor[x] + d; y >= 0 {
						c := slices.Clone(anchor)
						c[x] = y
						candidates = append(candidates, c)
					}
				}
			}
			for _, c := range candidates {
				label := fmt.Sprintf("%s %v/%v at %v", sys.name, opts.Policy, opts.Discipline, c)
				cold, err := performability.NewEvaluator(sys.analysis, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := cold.Evaluate(perf.Config{Replicas: c})
				for _, pass := range []string{"warmed", "tabulated"} {
					got, err := warm.Evaluate(perf.Config{Replicas: c})
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s, %s: error %v, cold evaluator %v", label, pass, err, wantErr)
					}
					if err == nil {
						if diff := resultDiff(want, got); diff != "" {
							t.Errorf("%s, %s: %s", label, pass, diff)
						}
					}
					evaluations++
				}
			}
		}
	}
	t.Logf("%d evaluations", evaluations)
}

// resultDiff names the first field in which got differs from want by
// any bit, or returns "".
func resultDiff(want, got *performability.Result) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !slices.Equal(want.Config.Replicas, got.Config.Replicas):
		return fmt.Sprintf("config %v, want %v", got.Config.Replicas, want.Config.Replicas)
	case !same(want.Availability, got.Availability):
		return fmt.Sprintf("availability %v, want %v", got.Availability, want.Availability)
	case !same(want.DegradationShare, got.DegradationShare):
		return fmt.Sprintf("degradation share %v, want %v", got.DegradationShare, want.DegradationShare)
	case want.StatesEvaluated != got.StatesEvaluated:
		return fmt.Sprintf("states evaluated %d, want %d", got.StatesEvaluated, want.StatesEvaluated)
	case !slices.EqualFunc(want.Waiting, got.Waiting, same):
		return fmt.Sprintf("waiting %v, want %v", got.Waiting, want.Waiting)
	case !slices.EqualFunc(want.FullUpWaiting, got.FullUpWaiting, same):
		return fmt.Sprintf("full-up waiting %v, want %v", got.FullUpWaiting, want.FullUpWaiting)
	}
	return ""
}
