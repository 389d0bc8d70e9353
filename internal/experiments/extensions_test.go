package experiments

import (
	"strings"
	"testing"
)

func TestE9DistributionAccuracy(t *testing.T) {
	tbl, err := E9Distribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var prev float64
	for i, row := range tbl.Rows {
		analytic := parse(t, row[1])
		mc := parse(t, row[2])
		erl := parse(t, row[3])
		// Analytic CDF vs Monte Carlo within 2%.
		if rel := abs(analytic-mc) / analytic; rel > 0.02 {
			t.Errorf("q=%s: analytic %v vs MC %v (%.1f%%)", row[0], analytic, mc, rel*100)
		}
		// Quantiles increase.
		if analytic <= prev {
			t.Errorf("row %d: quantile not increasing", i)
		}
		prev = analytic
		// Erlang-4 tail percentiles (q ≥ 0.9) are lighter.
		if row[0] != "0.5" && erl >= analytic {
			t.Errorf("q=%s: Erlang-4 percentile %v not below exponential %v", row[0], erl, analytic)
		}
	}
}

func TestE11PlannersOptimality(t *testing.T) {
	tbl, err := E11Planners()
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in groups of three (greedy, b&b, exhaustive); exhaustive
	// is last and optimal within each group.
	if len(tbl.Rows) == 0 || len(tbl.Rows)%3 != 0 {
		t.Fatalf("%d rows, want groups of three", len(tbl.Rows))
	}
	for g := 0; g+2 < len(tbl.Rows); g += 3 {
		optimal := parse(t, tbl.Rows[g+2][4])
		for off, slack := range map[int]float64{0: 1, 1: 0} { // greedy +1, b&b exact
			cost := parse(t, tbl.Rows[g+off][4])
			if cost > optimal+slack {
				t.Errorf("group %d planner %s: cost %v vs optimal %v", g, tbl.Rows[g+off][2], cost, optimal)
			}
			if cost < optimal {
				t.Errorf("group %d planner %s: cost %v below the optimum %v", g, tbl.Rows[g+off][2], cost, optimal)
			}
		}
		// Branch-and-bound beats exhaustive on evaluations.
		bbEvals := parse(t, tbl.Rows[g+1][5])
		exEvals := parse(t, tbl.Rows[g+2][5])
		if bbEvals >= exEvals {
			t.Errorf("group %d: b&b evaluations %v not below exhaustive %v", g, bbEvals, exEvals)
		}
	}
}

func TestAblationHeterogeneousInvariants(t *testing.T) {
	tbl, err := AblationHeterogeneous()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Same total capacity ⇒ same utilization and throughput everywhere.
	rho0 := parse(t, tbl.Rows[0][2])
	tp0 := parse(t, tbl.Rows[0][4])
	for i, row := range tbl.Rows {
		if abs(parse(t, row[2])-rho0) > 1e-9 {
			t.Errorf("row %d: rho differs", i)
		}
		if abs(parse(t, row[4])-tp0) > 1e-6 {
			t.Errorf("row %d: throughput differs", i)
		}
	}
	// Mean waiting ∝ replica count: 4 → w, 2 → w/2, 1 → w/4, 3 → 3w/4.
	w4 := parse(t, tbl.Rows[0][3])
	if got := parse(t, tbl.Rows[1][3]); abs(got-w4/2)/w4 > 1e-6 {
		t.Errorf("2-replica fleet wait %v, want %v", got, w4/2)
	}
	if got := parse(t, tbl.Rows[2][3]); abs(got-w4/4)/w4 > 1e-6 {
		t.Errorf("1-replica fleet wait %v, want %v", got, w4/4)
	}
	if got := parse(t, tbl.Rows[3][3]); abs(got-3*w4/4)/w4 > 1e-6 {
		t.Errorf("3-replica fleet wait %v, want %v", got, 3*w4/4)
	}
	if !strings.Contains(tbl.Notes[1], "COUNT") {
		t.Error("note lost")
	}
}
