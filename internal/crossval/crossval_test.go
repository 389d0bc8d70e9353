package crossval

import (
	"math"
	"path/filepath"
	"testing"

	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/wfjson"
)

// TestGeneratorValidSystems checks that every generated system builds,
// stays within the stability target, and carries simulator service
// distributions whose moments match the environment's declared moments.
func TestGeneratorValidSystems(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		sys, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		models, err := spec.BuildAll(sys.Flows, sys.Env)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		analysis, err := perf.NewAnalysis(sys.Env, models)
		if err != nil {
			t.Fatalf("seed %d: analysis: %v", seed, err)
		}
		report, err := analysis.Evaluate(perf.Config{Replicas: sys.Replicas})
		if err != nil {
			t.Fatalf("seed %d: evaluate: %v", seed, err)
		}
		for x, rho := range report.Utilization {
			if rho > maxTargetRho+1e-9 {
				t.Errorf("seed %d: type %d utilization %v above target cap %v", seed, x, rho, maxTargetRho)
			}
		}
		if report.Saturated() {
			t.Errorf("seed %d: generated system is saturated", seed)
		}
		dists, err := sys.ServiceDists()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for x, d := range dists {
			st := sys.Env.Type(x)
			if math.Abs(d.Mean()-st.MeanService) > 1e-9*st.MeanService {
				t.Errorf("seed %d: type %d dist mean %v != declared %v", seed, x, d.Mean(), st.MeanService)
			}
			if math.Abs(d.SecondMoment()-st.ServiceSecondMoment) > 1e-9*st.ServiceSecondMoment {
				t.Errorf("seed %d: type %d dist second moment %v != declared %v", seed, x, d.SecondMoment(), st.ServiceSecondMoment)
			}
		}
	}
}

// TestGeneratorDeterministic pins seed-reproducibility: the same seed
// must yield byte-identical systems (the corpus and replay machinery
// depend on it).
func TestGeneratorDeterministic(t *testing.T) {
	a, err := Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := wfjson.Fingerprint(a.Env, a.Flows)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := wfjson.Fingerprint(b.Env, b.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("same seed produced different systems: %s vs %s", fa, fb)
	}
}

// TestCheckCleanSystems runs the full differential check over a handful
// of generated systems: all routes must agree within tolerance.
func TestCheckCleanSystems(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		sys, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ds, err := Check(sys, Options{Replications: 3})
		if err != nil {
			t.Fatalf("seed %d: check: %v", seed, err)
		}
		for _, d := range ds {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestMutationDetected is the harness's self-test: each injected fault
// must produce at least one disagreement across a batch of systems
// (otherwise the oracle would also be blind to real model bugs of the
// same shape).
func TestMutationDetected(t *testing.T) {
	for _, fault := range []Fault{FaultServiceMoment, FaultArrivalRate, FaultDropRenormalisation} {
		detected := 0
		for seed := uint64(1); seed <= 8; seed++ {
			sys, err := Generate(seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ds, err := Check(sys, Options{Replications: 3, Fault: fault})
			if err != nil {
				t.Fatalf("seed %d: check: %v", seed, err)
			}
			if len(ds) > 0 {
				detected++
			}
		}
		if detected == 0 {
			t.Errorf("fault %v: not detected in any of 8 systems", fault)
		}
		t.Logf("fault %v: detected in %d/8 systems", fault, detected)
	}
}

// TestShrinkPreservesFailure shrinks a known-failing (mutated) system
// and checks the result still fails while being no larger.
func TestShrinkPreservesFailure(t *testing.T) {
	opt := Options{Replications: 3, Fault: FaultServiceMoment}
	failing := func(c *System) bool {
		ds, err := Check(c, opt)
		return err == nil && len(ds) > 0
	}
	// Seed 7 is a known detection for the service-moment fault.
	sys, err := Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if !failing(sys) {
		t.Skip("seed 7 no longer fails under the injected fault; retune the test seed")
	}
	shrunk := Shrink(sys, failing)
	if !failing(shrunk) {
		t.Fatal("shrunk system no longer fails")
	}
	if len(shrunk.Flows) > len(sys.Flows) {
		t.Errorf("shrinking grew the workflow count: %d -> %d", len(sys.Flows), len(shrunk.Flows))
	}
	states := func(s *System) int {
		n := 0
		for _, f := range s.Flows {
			n += len(f.Chart.States)
		}
		return n
	}
	if states(shrunk) > states(sys) {
		t.Errorf("shrinking grew the state count: %d -> %d", states(sys), states(shrunk))
	}
	if _, err := spec.BuildAll(shrunk.Flows, shrunk.Env); err != nil {
		t.Fatalf("shrunk system no longer builds: %v", err)
	}
	t.Logf("shrunk: %d->%d workflows, %d->%d states, %d->%d types",
		len(sys.Flows), len(shrunk.Flows), states(sys), states(shrunk), sys.Env.K(), shrunk.Env.K())
}

// TestCorpusRoundTrip writes a reproducer and reads it back unchanged.
func TestCorpusRoundTrip(t *testing.T) {
	sys, err := Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	ds := []Disagreement{{Route: "perf", Metric: "waiting[type0]", Ref: 1, Obs: 2, Slack: 0.1}}
	dir := t.TempDir()
	path, err := WriteCorpus(dir, sys, FaultServiceMoment, ds)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("corpus written to %s, want directory %s", path, dir)
	}
	got, cf, err := ReadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Fault != "service-moment" || cf.Seed != 11 || len(cf.Disagreements) != 1 {
		t.Errorf("corpus metadata mismatch: %+v", cf)
	}
	fa, err := wfjson.Fingerprint(sys.Env, sys.Flows)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := wfjson.Fingerprint(got.Env, got.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("corpus round trip changed the system: %s vs %s", fa, fb)
	}
	if len(got.Replicas) != len(sys.Replicas) {
		t.Fatalf("replica vector length changed: %v vs %v", got.Replicas, sys.Replicas)
	}
	for i := range got.Replicas {
		if got.Replicas[i] != sys.Replicas[i] {
			t.Errorf("replicas changed: %v vs %v", got.Replicas, sys.Replicas)
			break
		}
	}
}

// TestCompareToleranceSemantics pins the comparison edge cases.
func TestCompareToleranceSemantics(t *testing.T) {
	tol := Tol{Z: 2, Rel: 0.1, Abs: 0.01}
	inf := math.Inf(1)

	if ds := compare(nil, "r", "m", inf, inf, 0, tol); len(ds) != 0 {
		t.Errorf("+Inf vs +Inf should agree, got %v", ds)
	}
	if ds := compare(nil, "r", "m", inf, 1, 0, tol); len(ds) != 1 {
		t.Errorf("+Inf vs finite should disagree, got %v", ds)
	}
	if ds := compare(nil, "r", "m", math.NaN(), 1, 0, tol); len(ds) != 1 {
		t.Errorf("NaN should always disagree, got %v", ds)
	}
	// |Δ| = 0.3; slack = 2·0.05 + 0.1·1 + 0.01 = 0.21 → disagree.
	if ds := compare(nil, "r", "m", 1, 1.3, 0.05, tol); len(ds) != 1 {
		t.Errorf("deviation beyond slack should disagree, got %v", ds)
	}
	// |Δ| = 0.2 < 0.21 → agree.
	if ds := compare(nil, "r", "m", 1, 1.2, 0.05, tol); len(ds) != 0 {
		t.Errorf("deviation within slack should agree, got %v", ds)
	}
}
