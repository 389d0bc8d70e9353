package crossval

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"performa/internal/avail"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/wfjson"
)

// Branch-and-bound prunes on it and greedy's stopping rule assumes it:
// one more replica of a type never raises that type's expected waiting
// time and never lowers its availability factor. The per-type term makes
// the claim checkable type by type — W_x(y), with "no operational level"
// read as +Inf, is non-increasing and 1 − π_x(0) non-decreasing over
// y = 1..16, under every saturation policy and both repair disciplines,
// on the corpus and 200 generated systems.
func TestTypeTermsMonotoneInReplicas(t *testing.T) {
	terms := 0
	for _, sys := range termSystems(t) {
		a := sys.analysis
		for _, opts := range termOptions {
			ev, err := performability.NewEvaluator(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < sys.env.K(); x++ {
				st := sys.env.Type(x)
				prevW, prevUp := math.Inf(1), 0.0
				for y := 1; y <= 16; y++ {
					pi, err := avail.TypeMarginal(avail.TypeParams{Replicas: y, FailureRate: st.FailureRate, RepairRate: st.RepairRate}, opts.Discipline)
					if err != nil {
						t.Fatalf("%s type %d y=%d: %v", sys.name, x, y, err)
					}
					term, err := ev.TypeTerm(x, pi, a.TypeLoad(x), st.MeanService, st.ServiceSecondMoment)
					if err != nil {
						t.Fatalf("%s type %d y=%d: %v", sys.name, x, y, err)
					}
					w := term.Waiting
					if !term.Operational {
						w = math.Inf(1)
					}
					if w > prevW || math.IsNaN(w) {
						t.Errorf("%s %v/%v: W_%d(%d) = %v above W_%d(%d) = %v", sys.name, opts.Policy, opts.Discipline, x, y, w, x, y-1, prevW)
					}
					if term.Up < prevUp {
						t.Errorf("%s %v/%v: type %d availability factor falls %v → %v at y = %d", sys.name, opts.Policy, opts.Discipline, x, prevUp, term.Up, y)
					}
					prevW, prevUp = w, term.Up
					terms++
				}
			}
		}
	}
	t.Logf("%d terms", terms)
}

// termSystem is one system of the per-type term checks.
type termSystem struct {
	name     string
	env      *spec.Environment
	flows    []*spec.Workflow
	replicas []int // the generator's configuration; nil for the corpus
	analysis *perf.Analysis
}

// termSystems are the 22 corpus systems and the generated systems of
// seeds 1–200, each with its analysis.
func termSystems(t *testing.T) []termSystem {
	t.Helper()
	var systems []termSystem
	files, err := filepath.Glob(filepath.Join("..", "..", "corpus", "systems", "*.wfjson"))
	if err != nil || len(files) != 22 {
		t.Fatalf("found %d corpus systems, want 22: %v", len(files), err)
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		systems = append(systems, termSystem{name: filepath.Base(file), env: env, flows: flows})
	}
	for seed := uint64(1); seed <= 200; seed++ {
		sys, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, termSystem{name: fmt.Sprintf("seed %d", seed), env: sys.Env, flows: sys.Flows, replicas: sys.Replicas})
	}
	for i := range systems {
		sys := &systems[i]
		models, err := spec.BuildAll(sys.flows, sys.env)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		if sys.analysis, err = perf.NewAnalysis(sys.env, models); err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
	}
	return systems
}

// termOptions are every saturation policy under both repair disciplines.
var termOptions = []performability.Options{
	{Policy: performability.Strict},
	{Policy: performability.Penalty, PenaltyValue: 100},
	{Policy: performability.ExcludeDown},
	{Policy: performability.Strict, Discipline: avail.SingleCrew},
	{Policy: performability.Penalty, PenaltyValue: 100, Discipline: avail.SingleCrew},
	{Policy: performability.ExcludeDown, Discipline: avail.SingleCrew},
}
