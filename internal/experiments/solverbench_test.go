package experiments

import (
	"testing"
)

// TestSolverBenchReduced runs the CI-sized E16 sweep and sanity-checks
// the rows: every solver converges with a tiny relative error against
// the closed form, and the table mirrors the row count.
func TestSolverBenchReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("solver bench sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("solver bench sweep under the race detector (covered by the CI smoke step)")
	}
	rows, tbl, err := SolverBench(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if tbl.ID != "E16" {
		t.Fatalf("table id %q, want E16", tbl.ID)
	}
	if len(tbl.Rows) != len(rows) {
		t.Fatalf("table has %d rows, JSON has %d", len(tbl.Rows), len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Solver] = true
		if r.States <= 0 || r.NNZ < r.States {
			t.Fatalf("%s/%s: implausible shape states=%d nnz=%d", r.Config, r.Solver, r.States, r.NNZ)
		}
		if r.RelErr > 1e-6 {
			t.Fatalf("%s/%s: rel err %v vs closed form", r.Config, r.Solver, r.RelErr)
		}
		if r.Unavail <= 0 || r.Unavail >= 1 {
			t.Fatalf("%s/%s: unavailability %v out of range", r.Config, r.Solver, r.Unavail)
		}
		if r.WallMS < 0 {
			t.Fatalf("%s/%s: negative wall time", r.Config, r.Solver)
		}
	}
	for _, solver := range []string{"dense", "gauss_seidel", "product_form"} {
		if !seen[solver] {
			t.Fatalf("sweep never ran %s", solver)
		}
	}
}

// TestJointChainSize pins the closed-form state/nnz count against a
// hand-computed example: Y = (1, 2) has 6 states; type 1 contributes
// 3·1 failure arcs + 3·1 repair arcs, type 2 contributes 2·2 + 2·2.
func TestJointChainSize(t *testing.T) {
	params := solverBenchParams([]int{1, 2})
	n, nnz := jointChainSize(params)
	if n != 6 {
		t.Fatalf("states = %d, want 6", n)
	}
	if want := 6 + 2*3*1 + 2*2*2; nnz != want {
		t.Fatalf("nnz = %d, want %d", nnz, want)
	}
}
