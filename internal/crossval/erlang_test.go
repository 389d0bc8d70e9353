package crossval

import (
	"math"
	"testing"

	"performa/internal/avail"
)

// TestErlangLegCleanSystems runs the Erlang leg alone on generated
// systems: avail's GTH phase-chain marginals and the LU reference must
// agree. It is deterministic and simulation-free, so it covers more
// seeds than the full Check can afford.
func TestErlangLegCleanSystems(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		sys, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		params, err := avail.ParamsFromEnvironment(sys.Env, sys.Replicas)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := erlangLeg(nil, sys, params)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range ds {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestErlangReferenceOneStage holds the reference itself to a closed
// form: with one stage the phase chain is the single-crew birth–death
// chain, whose marginal avail computes by recurrence, not by a solve.
func TestErlangReferenceOneStage(t *testing.T) {
	for _, p := range []avail.TypeParams{
		{Replicas: 1, FailureRate: 0.5, RepairRate: 2, RepairStages: 1},
		{Replicas: 4, FailureRate: 0.02, RepairRate: 1, RepairStages: 1},
		{Replicas: 6, FailureRate: 0.3, RepairRate: 0.7, RepairStages: 1},
	} {
		ref, err := erlangReference(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := avail.TypeMarginal(p, avail.SingleCrew)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if d := math.Abs(ref[j] - want[j]); d > 1e-12 {
				t.Errorf("%+v: P(X=%d) = %v, closed form %v", p, j, ref[j], want[j])
			}
		}
	}
}
