package ctmc

import (
	"math"
	"testing"
)

func TestTransientDistributionTwoState(t *testing.T) {
	// Single exponential stage: P(absorbed by t) = 1 − e^{−t/H}.
	h := 2.0
	u := twoState(h).uniformize()
	for _, tt := range []float64{0, 0.5, 1, 2, 5, 10} {
		pi, err := u.distributionAt(tt)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-tt/h)
		if math.Abs(pi[1]-want) > 1e-9 {
			t.Errorf("t=%v: P(absorbed) = %v, want %v", tt, pi[1], want)
		}
		if math.Abs(pi.Sum()-1) > 1e-9 {
			t.Errorf("t=%v: distribution sums to %v", tt, pi.Sum())
		}
	}
}

func TestTransientDistributionErlangChain(t *testing.T) {
	// Two sequential exponential stages of mean 1 each: absorption time
	// is Erlang-2(1), CDF = 1 − e^{−t}(1 + t).
	times := []float64{0.5, 1, 2, 4}
	cdf, err := TurnaroundCDF(erlangChain(2, 1), times)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range times {
		if want := 1 - math.Exp(-tt)*(1+tt); math.Abs(cdf[i]-want) > 1e-9 {
			t.Errorf("t=%v: CDF = %v, want %v", tt, cdf[i], want)
		}
	}
}

func TestTransientDistributionInvalidTime(t *testing.T) {
	c := twoState(1)
	if _, err := TurnaroundCDF(c, []float64{-1}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := TurnaroundCDF(c, []float64{math.NaN()}); err == nil {
		t.Error("NaN time accepted")
	}
}

func TestTurnaroundCDFMonotone(t *testing.T) {
	c := loopChain(0.4, 1, 2)
	times := []float64{0, 1, 2, 4, 8, 16, 32, 64}
	cdf, err := TurnaroundCDF(c, times)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-12 {
			t.Errorf("CDF not monotone at %v: %v < %v", times[i], cdf[i], cdf[i-1])
		}
	}
	if cdf[0] != 0 {
		t.Errorf("CDF(0) = %v", cdf[0])
	}
	if cdf[len(cdf)-1] < 0.95 {
		t.Errorf("CDF(64) = %v, want near 1", cdf[len(cdf)-1])
	}
}

func TestTurnaroundQuantileExponential(t *testing.T) {
	// Exponential turnaround: median = H·ln 2, p90 = H·ln 10.
	h := 3.0
	c := twoState(h)
	median, err := TurnaroundQuantile(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := h * math.Ln2; math.Abs(median-want) > 1e-6 {
		t.Errorf("median = %v, want %v", median, want)
	}
	p90, err := TurnaroundQuantile(c, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if want := h * math.Log(10); math.Abs(p90-want) > 1e-6 {
		t.Errorf("p90 = %v, want %v", p90, want)
	}
}

func TestTurnaroundQuantileValidation(t *testing.T) {
	c := twoState(1)
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		if _, err := TurnaroundQuantile(c, q); err == nil {
			t.Errorf("quantile level %v accepted", q)
		}
	}
}

func TestTurnaroundQuantileConsistentWithCDF(t *testing.T) {
	c := branchChain(0.3)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
		tq, err := TurnaroundQuantile(c, q)
		if err != nil {
			t.Fatal(err)
		}
		cdf, err := TurnaroundCDF(c, []float64{tq})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cdf[0]-q) > 1e-6 {
			t.Errorf("CDF(quantile(%v)) = %v", q, cdf[0])
		}
	}
}

func TestTransientMeanMatchesFirstPassage(t *testing.T) {
	// E[T] = ∫ (1 − CDF(t)) dt: integrate numerically and compare with
	// the first-passage solve. This ties the distributional analysis to
	// the paper's mean-value analysis.
	c := loopChain(0.5, 1, 1)
	mean, err := MeanTurnaround(c)
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.05
	var mid []float64
	for tt := 0.0; tt < mean*12; tt += dt {
		mid = append(mid, tt+dt/2)
	}
	cdf, err := TurnaroundCDF(c, mid)
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for _, p := range cdf {
		integral += (1 - p) * dt
	}
	if math.Abs(integral-mean)/mean > 0.01 {
		t.Errorf("∫(1−CDF) = %v vs mean %v", integral, mean)
	}
}
