package sim

import (
	"testing"

	"performa/internal/audit"
	"performa/internal/spec"
	"performa/internal/workload"
)

// TestSimulateAllocationCeiling bounds the allocations of a short
// trail-recording run of the ingest-steady set-up (EPWorkflow(3) on
// replicas (3,3,4), seed 1) on each plan. The collapsed ceiling is the
// count of the collapsed walk the flat plan replaced (11,241; the flat
// plan reads 10,990); the true-concurrency ceiling is the token
// walker's count over the chart plan (the per-visit closures before it
// read 28,959). Both runs are deterministic, so a rise is a new
// allocation on the walker's path, not noise.
func TestSimulateAllocationCeiling(t *testing.T) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(3), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		concurrent bool
		ceiling    float64
	}{
		{"collapsed", false, 11_241},
		{"true-concurrency", true, 14_939},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Run(Params{
				Env: env, Models: []*spec.Model{m}, Replicas: []int{3, 3, 4},
				Horizon: 100, Seed: 1, Trail: audit.NewTrail(), TrueConcurrency: tc.concurrent,
			}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
