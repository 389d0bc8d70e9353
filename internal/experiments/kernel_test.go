package experiments

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"performa/internal/crossval"
	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/spec"
	"performa/internal/wfjson"
)

// corpusModels builds the top-level model of every workflow in every
// checked-in corpus system.
func corpusModels(t *testing.T) []*spec.Model {
	t.Helper()
	paths, err := filepath.Glob("../../corpus/systems/*.wfjson")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 22 {
		t.Fatalf("corpus has %d systems, want 22", len(paths))
	}
	var models []*spec.Model
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, flow := range flows {
			m, err := spec.Build(flow, env)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			models = append(models, m)
		}
	}
	return models
}

// luAbsorb solves (I − P_T) x = rhs over the chain's transient states —
// or the transposed system, for visit counts — densely by LU: the
// oracle the absorption kernel is checked against. rhs and the result
// have one entry per state; the absorbing entry of the result is zero.
func luAbsorb(c *ctmc.Chain, rhs linalg.Vector, transposed bool) (linalg.Vector, error) {
	n := c.Absorbing()
	a := linalg.Identity(n)
	for i := 0; i < n; i++ {
		for _, arc := range c.Arcs[i] {
			switch {
			case arc.To == n:
			case transposed:
				a.Add(arc.To, i, -arc.Prob)
			default:
				a.Add(i, arc.To, -arc.Prob)
			}
		}
	}
	lu, err := linalg.FactorLU(a)
	if err != nil {
		return nil, err
	}
	x := linalg.NewVector(c.N())
	if _, err := lu.SolveInto(x[:n], rhs[:n]); err != nil {
		return nil, err
	}
	return x, nil
}

// checkKernelAgainstLU compares the kernel's first-passage times, visit
// counts and second moment with the dense LU oracle on one chain.
func checkKernelAgainstLU(t *testing.T, label string, c *ctmc.Chain) {
	t.Helper()
	const tol = 1e-10
	close := func(what string, got, want float64) {
		if math.Abs(got-want) > tol*math.Abs(want) {
			t.Errorf("%s: %s = %v, LU oracle %v", label, what, got, want)
		}
	}

	m, err := ctmc.FirstPassageTimes(c)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	luM, err := luAbsorb(c, c.H, false)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range m {
		close("first passage", m[i], luM[i])
	}

	visits, err := ctmc.ExpectedVisits(c)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	e0 := linalg.NewVector(c.N())
	e0[0] = 1
	luVisits, err := luAbsorb(c, e0, true)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range visits {
		close("visits", visits[i], luVisits[i])
	}

	mean, variance, err := ctmc.TurnaroundMoments(c)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rhs := linalg.NewVector(c.N())
	for i := 0; i < c.Absorbing(); i++ {
		var next float64
		for _, a := range c.Arcs[i] {
			next += a.Prob * luM[a.To]
		}
		rhs[i] = 2*c.H[i]*c.H[i] + 2*c.H[i]*next
	}
	luS, err := luAbsorb(c, rhs, false)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	close("mean", mean, luM[0])
	close("second moment", variance+mean*mean, luS[0])
}

func TestKernelMatchesLUOnCorpus(t *testing.T) {
	for _, m := range corpusModels(t) {
		checkKernelAgainstLU(t, m.Workflow.Name, m.Chain)
	}
}

func TestKernelMatchesLUOnGeneratedSystems(t *testing.T) {
	loops := 0
	for seed := uint64(1); seed <= 200; seed++ {
		sys, err := crossval.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		models, err := spec.BuildAll(sys.Flows, sys.Env)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			checkKernelAgainstLU(t, m.Workflow.Name, m.Chain)
			for i, arcs := range m.Chain.Arcs {
				if len(arcs) > 0 && arcs[0].To < i {
					loops++
				}
			}
		}
	}
	if loops == 0 {
		t.Error("no generated chain has a back arc; the loop path went untested")
	}
}

// TestCorpusBuildsInTwoSweepsPerSolve gates the sweep order: every
// chain the corpus serves is acyclic, so each of its solves must take
// the first exact sweep plus the confirming one. Sweeping front to back
// instead costs one sweep per state — the regression that made building
// the corpus cubic in the chain length.
func TestCorpusBuildsInTwoSweepsPerSolve(t *testing.T) {
	before := linalg.SolverCounters()
	corpusModels(t)
	delta := linalg.SolverCountersDelta(before)
	gs := delta["gauss_seidel"]
	if gs.Solves == 0 {
		t.Fatal("building the corpus recorded no gauss_seidel solve")
	}
	if gs.Iterations > 2*gs.Solves {
		t.Errorf("corpus build: %d sweeps over %d solves, want at most 2 per solve", gs.Iterations, gs.Solves)
	}
	if lu := delta["lu"]; lu.Fallbacks != 0 {
		t.Errorf("corpus build fell back to LU %d times", lu.Fallbacks)
	}
}
