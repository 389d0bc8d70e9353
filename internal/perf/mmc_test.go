package perf

import (
	"math"
	"testing"
	"testing/quick"

	"performa/internal/spec"
)

func TestErlangCSingleServer(t *testing.T) {
	// c = 1: C(1, a) = a (= ρ), the M/M/1 probability of waiting.
	for _, a := range []float64{0.1, 0.5, 0.9} {
		got, err := ErlangC(1, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-a) > 1e-12 {
			t.Errorf("C(1, %v) = %v, want %v", a, got, a)
		}
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// Classic table value: C(2, 1) = 1/3.
	got, err := ErlangC(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("C(2,1) = %v, want 1/3", got)
	}
}

func TestErlangCBoundaries(t *testing.T) {
	if got, err := ErlangC(3, 0); err != nil || got != 0 {
		t.Errorf("C(3,0) = %v, %v", got, err)
	}
	if got, err := ErlangC(2, 2.5); err != nil || got != 1 {
		t.Errorf("C(2,2.5) = %v, %v (unstable)", got, err)
	}
	if _, err := ErlangC(0, 1); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := ErlangC(1, -1); err == nil {
		t.Error("negative load accepted")
	}
}

func TestMMCWaitingSingleServerMatchesMM1(t *testing.T) {
	// c = 1 reduces to M/M/1: W = ρ b / (1 − ρ).
	b := 0.1
	for _, rho := range []float64{0.2, 0.5, 0.8} {
		lambda := rho / b
		got, err := MMCWaiting(1, lambda, b)
		if err != nil {
			t.Fatal(err)
		}
		want := rho * b / (1 - rho)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("ρ=%v: W = %v, want %v", rho, got, want)
		}
	}
}

func TestMMCWaitingSaturation(t *testing.T) {
	if got, err := MMCWaiting(2, 25, 0.1); err != nil || !math.IsInf(got, 1) {
		t.Errorf("saturated W = %v, %v", got, err)
	}
	if got, err := MMCWaiting(2, 0, 0.1); err != nil || got != 0 {
		t.Errorf("zero-load W = %v, %v", got, err)
	}
	if _, err := MMCWaiting(2, 1, 0); err == nil {
		t.Error("zero service time accepted")
	}
	if _, err := MMCWaiting(2, -1, 0.1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestPoolingBeatsSplitQueues(t *testing.T) {
	// At equal total capacity and exponential service, the pooled
	// M/M/c always waits less than c split M/M/1 queues.
	st := spec.ServerType{Name: "x", MeanService: 0.1, ServiceSecondMoment: 0.02}
	for _, c := range []int{2, 4, 8} {
		for _, rho := range []float64{0.3, 0.6, 0.9} {
			l := rho * float64(c) / st.MeanService
			pooled, err := MMCWaiting(c, l, st.MeanService)
			if err != nil {
				t.Fatal(err)
			}
			split := mg1Wait(l/float64(c), st.MeanService, st.ServiceSecondMoment)
			if pooled >= split {
				t.Errorf("c=%d ρ=%v: pooled %v not below split %v", c, rho, pooled, split)
			}
		}
	}
}

func TestQuickErlangCInUnitInterval(t *testing.T) {
	f := func(rawC uint8, rawA float64) bool {
		c := 1 + int(rawC%16)
		a := math.Abs(math.Mod(rawA, float64(c)))
		p, err := ErlangC(c, a)
		if err != nil {
			return false
		}
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMMCMonotoneInServers(t *testing.T) {
	f := func(rawC uint8, rawRho float64) bool {
		c := 1 + int(rawC%8)
		rho := 0.05 + 0.9*math.Abs(math.Mod(rawRho, 1))
		b := 0.2
		l := rho * float64(c) / b
		w1, err := MMCWaiting(c, l, b)
		if err != nil {
			return false
		}
		w2, err := MMCWaiting(c+1, l, b)
		if err != nil {
			return false
		}
		return w2 <= w1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
