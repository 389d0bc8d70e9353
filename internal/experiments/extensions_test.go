package experiments

import "testing"

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
