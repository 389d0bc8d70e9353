package experiments

import (
	"strings"
	"testing"
)

func TestE13DiscoveryAccuracy(t *testing.T) {
	tbl, err := E13Discovery(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		truth := parse(t, row[1])
		got := parse(t, row[2])
		var tolerance float64
		switch {
		case row[0] == "execution states":
			tolerance = 0
		case strings.HasPrefix(row[0], "P("):
			tolerance = 0.07 // binomial noise at n≈500
		default:
			tolerance = 0.25 * truth
		}
		if d := abs(got - truth); d > tolerance {
			t.Errorf("%s: discovered %v vs truth %v (tolerance %v)", row[0], got, truth, tolerance)
		}
	}
}

// TestTrailExperimentsReproducible: the simulator writes E8's and E13's
// trails from the seed alone, so one seed gives one table.
func TestTrailExperimentsReproducible(t *testing.T) {
	for name, run := range map[string]func() (*Table, error){
		"E8":  func() (*Table, error) { return E8Calibration(E8Options{Seed: 42}) },
		"E13": func() (*Table, error) { return E13Discovery(42) },
	} {
		a, err := run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if a.Format() != b.Format() {
			t.Errorf("%s differs between two runs at seed 42:\n%s\nvs\n%s", name, a.Format(), b.Format())
		}
	}
}
