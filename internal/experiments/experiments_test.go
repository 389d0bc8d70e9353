package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// parse reads a float cell back, tolerating units suffixes.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	fields := strings.Fields(cell)
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestE1ReproducesPaperNumbers(t *testing.T) {
	tbl, err := E1Availability()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// (1,1,1): ~71 hours/yr.
	if h := parse(t, tbl.Rows[0][3]); h < 70 || h > 72 {
		t.Errorf("(1,1,1) downtime = %v h, paper says 71", h)
	}
	if !strings.HasSuffix(tbl.Rows[0][3], " h") {
		t.Errorf("unit = %q", tbl.Rows[0][3])
	}
	// (3,3,3): ~10 s/yr.
	if s := parse(t, tbl.Rows[1][3]); s < 9 || s > 11.5 {
		t.Errorf("(3,3,3) downtime = %v s, paper says 10", s)
	}
	if !strings.HasSuffix(tbl.Rows[1][3], " s") {
		t.Errorf("unit = %q", tbl.Rows[1][3])
	}
	// (2,2,3): < 1 min/yr.
	cell := tbl.Rows[2][3]
	v := parse(t, cell)
	if strings.HasSuffix(cell, " s") {
		if v >= 60 {
			t.Errorf("(2,2,3) downtime = %v s, want < 60", v)
		}
	} else if !strings.HasSuffix(cell, " s") && v >= 1 {
		t.Errorf("(2,2,3) downtime = %q, want below a minute", cell)
	}
	// Exact and product form agree.
	for i, row := range tbl.Rows {
		if row[3] != row[4] {
			t.Errorf("row %d: exact %q vs product %q", i, row[3], row[4])
		}
	}
}

func TestE2TableShape(t *testing.T) {
	tbl, err := E2EPWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Errorf("EP has %d states in the table, want 7", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "NewOrder_S" {
		t.Errorf("first state = %q", tbl.Rows[0][0])
	}
	if got := parse(t, tbl.Rows[0][2]); got != 1 {
		t.Errorf("visits(NewOrder) = %v", got)
	}
}

func TestE3ThroughputScalesWithReplication(t *testing.T) {
	tbl, err := E3Throughput()
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in groups of three (Y = 1, 2, 4) per rate; throughput
	// must scale linearly within a group.
	for g := 0; g+2 < len(tbl.Rows); g += 3 {
		t1 := parse(t, tbl.Rows[g][7])
		t2 := parse(t, tbl.Rows[g+1][7])
		t4 := parse(t, tbl.Rows[g+2][7])
		if !(t2 > 1.9*t1 && t2 < 2.1*t1) {
			t.Errorf("group %d: throughput(2Y) = %v, want ≈2×%v", g, t2, t1)
		}
		if !(t4 > 1.9*t2 && t4 < 2.1*t2) {
			t.Errorf("group %d: throughput(4Y) = %v, want ≈2×%v", g, t4, t2)
		}
	}
}

func TestE4WaitingCurveMonotone(t *testing.T) {
	tbl, err := E4WaitingCurve()
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, row := range tbl.Rows {
		w := parse(t, row[2])
		if i > 0 && w <= prev {
			t.Errorf("w_eng not increasing at row %d", i)
		}
		prev = w
	}
	// Blow-up near saturation: last/first ratio is large.
	first := parse(t, tbl.Rows[0][2])
	last := parse(t, tbl.Rows[len(tbl.Rows)-1][2])
	if last < 50*first {
		t.Errorf("no hyperbolic blow-up: %v vs %v", last, first)
	}
}

func TestE5PerformabilityShape(t *testing.T) {
	tbl, err := E5Performability()
	if err != nil {
		t.Fatal(err)
	}
	// W^Y ≥ w everywhere; availability increases down the rows except
	// the (2,2,3) → (3,3,3) ordering which is also increasing.
	var prevAvail float64
	for i, row := range tbl.Rows {
		availability := parse(t, row[1])
		full := parse(t, row[2])
		wy := parse(t, row[3])
		if wy < full {
			t.Errorf("row %d: W^Y %v below full-up %v", i, wy, full)
		}
		if i > 0 && availability < prevAvail {
			t.Errorf("row %d: availability decreased", i)
		}
		prevAvail = availability
	}
	// Degradation percentage shrinks from (2,2,2) to (4,4,4).
	deg222 := parse(t, tbl.Rows[1][4])
	deg444 := parse(t, tbl.Rows[4][4])
	if deg444 >= deg222 {
		t.Errorf("degradation did not shrink: %v → %v", deg222, deg444)
	}
}

func TestE6GreedyOptimal(t *testing.T) {
	tbl, err := E6Greedy()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		greedy := parse(t, row[3])
		optimal := parse(t, row[5])
		if greedy < optimal {
			t.Errorf("row %d: greedy cost %v below optimum %v", i, greedy, optimal)
		}
		if greedy > optimal+1 {
			t.Errorf("row %d: greedy cost %v above optimum+1 %v", i, greedy, optimal)
		}
		gEvals := parse(t, row[6])
		eEvals := parse(t, row[7])
		if gEvals > eEvals {
			t.Errorf("row %d: greedy used more evaluations (%v) than exhaustive (%v)", i, gEvals, eEvals)
		}
	}
}

func TestE7ValidationAccuracy(t *testing.T) {
	tbl, err := E7Validation(E7Options{Seed: 42, Horizon: 8000})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		rel := parse(t, row[4])
		metric := row[1]
		limit := 25.0
		switch {
		case strings.HasPrefix(metric, "rho"), metric == "turnaround":
			limit = 10
		case metric == "unavailability":
			limit = 40
		}
		if rel > limit || rel < -limit {
			t.Errorf("%s %s: relative error %v%% beyond ±%v%%", row[0], metric, rel, limit)
		}
	}
}

func TestE8CalibrationAccuracy(t *testing.T) {
	tbl, err := E8Calibration(E8Options{Seed: 7, Instances: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Branch probabilities within 4.5 binomial standard errors of the
	// specification at the row's own sample size (plus the table's
	// three-decimal rounding): fewer instances reach CheckPayment than
	// leave NewOrder, so one constant bound would not fit every row.
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[0], "P(") {
			continue
		}
		want := parse(t, row[1])
		got := parse(t, row[2])
		n := parse(t, row[3])
		if n < 30 {
			t.Errorf("%s: only %v departures observed", row[0], n)
			continue
		}
		if bound := 4.5*math.Sqrt(want*(1-want)/n) + 0.001; math.Abs(got-want) > bound {
			t.Errorf("%s: estimated %v vs specified %v, beyond ±%.3f at n = %v", row[0], got, want, bound, n)
		}
	}
}

func TestAblationSeriesConverges(t *testing.T) {
	tbl, err := AblationSeries()
	if err != nil {
		t.Fatal(err)
	}
	var prevErr float64 = 1e18
	for i, row := range tbl.Rows {
		e := parse(t, row[3])
		if e > prevErr*1.0000001 {
			t.Errorf("row %d: error %v did not shrink from %v", i, e, prevErr)
		}
		prevErr = e
	}
	last := parse(t, tbl.Rows[len(tbl.Rows)-1][3])
	if last > 1e-4 {
		t.Errorf("tightest truncation error = %v", last)
	}
}

func TestAblationRepairDiscipline(t *testing.T) {
	tbl, err := AblationRepairDiscipline()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tbl.Rows {
		ratio := parse(t, row[3])
		if ratio < 1-1e-9 {
			t.Errorf("row %d: single crew better than independent (ratio %v)", i, ratio)
		}
	}
	// (1,1,1) must have ratio exactly 1 (one server ⇒ disciplines equal).
	if r := parse(t, tbl.Rows[0][3]); r < 0.999 || r > 1.001 {
		t.Errorf("(1,1,1) ratio = %v, want 1", r)
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID: "T", Title: "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow("1", "2")
	out := tbl.Format()
	if !strings.Contains(out, "T — demo") || !strings.Contains(out, "long-column") ||
		!strings.Contains(out, "note: hello") {
		t.Errorf("format output:\n%s", out)
	}
}

// TestTablesReproducible: wfmsbench's output is a fixed record, so E20,
// a table that once carried a wall-clock column, must format to the
// same bytes on two runs.
func TestTablesReproducible(t *testing.T) {
	dir := t.TempDir() // no corpus: E20's reduced synthetic grid alone
	var out [2]string
	for i := range out {
		_, tbl, err := NetDiffBench(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tbl.Format()
	}
	if out[0] != out[1] {
		t.Errorf("two runs differ:\n%s\n%s", out[0], out[1])
	}
}
