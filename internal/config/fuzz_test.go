package config

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"performa/internal/crossval"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/wfmserr"
)

// FuzzPlannersAgree runs every planner on a generated system inside a
// fuzzed per-type cap box (1–4 replicas) against goals at a fuzzed
// fraction of the floor configuration's metrics. Branch-and-bound must
// find exhaustive's cost, and every returned assessment must be a fresh
// AssessContext of its configuration, bit for bit: branch-and-bound
// hands a probe's assessment down to the leaf it admits instead of
// judging the leaf again, and a warm-started greedy re-judges the
// candidates its removal scan already saw.
func FuzzPlannersAgree(f *testing.F) {
	f.Add(uint64(1), uint16(0x00ff), uint8(0), 0.5)
	f.Add(uint64(5), uint16(0xffff), uint8(1), 1.0)
	f.Add(uint64(17), uint16(0x1b6c), uint8(2), 0.2)
	f.Add(uint64(42), uint16(0x0421), uint8(4), 0.7)
	f.Add(uint64(7), uint16(0xaaaa), uint8(6), 0.05)
	f.Fuzz(func(t *testing.T, seed uint64, caps uint16, mode uint8, scale float64) {
		if !(scale > 0 && scale <= 1) {
			t.Skip("goal scale outside (0, 1]")
		}
		sys, err := crossval.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		models, err := spec.BuildAll(sys.Flows, sys.Env)
		if err != nil {
			t.Fatal(err)
		}
		a, err := perf.NewAnalysis(sys.Env, models)
		if err != nil {
			t.Fatal(err)
		}
		k := a.Env().K()
		floor, hi := make([]int, k), make([]int, k)
		for x := range hi {
			floor[x], hi[x] = 1, 1+int(caps>>(2*x)&3)
		}
		fresh := DefaultOptions()
		switch mode % 3 {
		case 1:
			fresh.Performability.Policy = performability.Strict
		case 2:
			fresh.Performability = performability.Options{Policy: performability.Penalty, PenaltyValue: 1}
		}
		ev, err := performability.NewEvaluator(a, fresh.Performability)
		if err != nil {
			t.Fatal(err)
		}
		shared := fresh
		shared.Evaluator = ev

		low, err := ev.Evaluate(perf.Config{Replicas: floor})
		if err != nil {
			t.Fatal(err)
		}
		top, err := ev.Evaluate(perf.Config{Replicas: hi})
		if err != nil {
			t.Fatal(err)
		}
		// A goal is a fraction of the floor's metric, or of the cap
		// corner's when the floor's is not a positive finite number.
		goal := func(floor, corner float64) float64 {
			for _, v := range []float64{floor, corner} {
				if v > 0 && !math.IsInf(v, 1) {
					return v * scale
				}
			}
			return 0
		}
		goals := Goals{
			MaxWaiting:        goal(low.MaxWaiting(), top.MaxWaiting()),
			MaxUnavailability: goal(1-low.Availability, 1-top.Availability),
		}
		if mode&4 != 0 {
			goals.PerWorkflowMaxDelay = make([]float64, len(models))
			for i := range models {
				goals.PerWorkflowMaxDelay[i] = goal(a.WorkflowDelay(i, low.Waiting, nil), a.WorkflowDelay(i, top.Waiting, nil))
			}
		}
		if goals.validate(k) != nil {
			t.Skip("no valid goal at this scale")
		}

		cons := Constraints{MaxReplicas: hi}
		bnb, bnbErr := BranchAndBound(a, goals, cons, shared)
		ex, exErr := Exhaustive(context.Background(), a, goals, cons, shared)
		greedy, greedyErr := Greedy(a, goals, cons, shared)
		warm, warmErr := Greedy(a, goals, Constraints{MaxReplicas: hi, StartFrom: hi}, shared)
		for name, err := range map[string]error{"bnb": bnbErr, "exhaustive": exErr, "greedy": greedyErr, "warm greedy": warmErr} {
			if err != nil && !errors.Is(err, wfmserr.ErrInfeasible) {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if (bnbErr == nil) != (exErr == nil) {
			t.Fatalf("bnb error %v, exhaustive error %v", bnbErr, exErr)
		}
		if bnbErr == nil && bnb.Cost != ex.Cost {
			t.Errorf("bnb cost %d at %v, exhaustive %d at %v", bnb.Cost, bnb.Config, ex.Cost, ex.Config)
		}
		for name, rec := range map[string]*Recommendation{"bnb": bnb, "exhaustive": ex, "greedy": greedy, "warm greedy": warm} {
			if rec == nil {
				continue
			}
			want, err := AssessContext(context.Background(), a, rec.Config, goals, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if msg := assessmentDiff(rec.Assessment, want); msg != "" {
				t.Errorf("%s at %v: %s", name, rec.Config, msg)
			}
			if !rec.Assessment.Feasible() {
				t.Errorf("%s returned infeasible %v", name, rec.Config)
			}
		}
	})
}

// assessmentDiff names the first field in which got differs from want,
// floats by bit pattern, or returns "".
func assessmentDiff(got, want *Assessment) string {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	switch {
	case !slices.Equal(got.Config.Replicas, want.Config.Replicas):
		return "config " + got.Config.String() + " vs " + want.Config.String()
	case !same(got.Perf.Waiting, want.Perf.Waiting):
		return "waiting differs"
	case !same(got.Perf.FullUpWaiting, want.Perf.FullUpWaiting):
		return "full-up waiting differs"
	case !same([]float64{got.Perf.Availability, got.Unavailability}, []float64{want.Perf.Availability, want.Unavailability}):
		return "availability differs"
	case !same(got.WorkflowDelays, want.WorkflowDelays):
		return "workflow delays differ"
	case got.PerfOK != want.PerfOK || got.AvailOK != want.AvailOK:
		return "goal verdicts differ"
	}
	return ""
}
