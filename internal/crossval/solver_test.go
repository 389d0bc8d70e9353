package crossval

import "testing"

// TestCheckSolversCleanSystems runs the deterministic solver-
// differential route on generated systems: dense and Gauss-Seidel solves
// of the same availability CTMC and of the Erlang phase-expanded
// marginals must agree, the dense repeat must be bit-identical, and the
// rejection-parity probes (reducible chain, stiff chain) must hold. No simulation is involved,
// so more systems than the full Check can afford are cheap.
func TestCheckSolversCleanSystems(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		sys, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ds, err := CheckSolvers(sys, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range ds {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestRejectionParityProbes runs the degenerate-chain probes directly:
// they are system-independent, so any disagreement is a solver bug, not
// a generator artifact.
func TestRejectionParityProbes(t *testing.T) {
	for _, d := range rejectionParity(nil) {
		t.Errorf("%s", d)
	}
}
