package perf

import (
	"math"
	"strings"
	"testing"
)

func TestHeterogeneousUnitSpeedsMatchHomogeneous(t *testing.T) {
	_, a := newAnalysis(t, 0.5)
	plain, err := a.Evaluate(Config{Replicas: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := a.EvaluateSpeeds(Config{Replicas: []int{2, 2, 2}}, [][]float64{{1, 1}, {1, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for x := range plain.Waiting {
		if math.Abs(plain.Waiting[x]-unit.Waiting[x]) > 1e-12 {
			t.Errorf("type %d: waiting %v vs %v", x, plain.Waiting[x], unit.Waiting[x])
		}
		if math.Abs(plain.Utilization[x]-unit.Utilization[x]) > 1e-12 {
			t.Errorf("type %d: utilization %v vs %v", x, plain.Utilization[x], unit.Utilization[x])
		}
	}
	if math.Abs(plain.ThroughputScale-unit.ThroughputScale) > 1e-12 {
		t.Errorf("throughput scale %v vs %v", plain.ThroughputScale, unit.ThroughputScale)
	}
}

func TestHeterogeneousFasterServersHelp(t *testing.T) {
	_, a := newAnalysis(t, 2)
	slow, err := a.Evaluate(Config{Replicas: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := a.EvaluateSpeeds(Config{Replicas: []int{2, 2, 2}}, [][]float64{{2, 2}, {2, 2}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for x := range slow.Waiting {
		if fast.Waiting[x] >= slow.Waiting[x] {
			t.Errorf("type %d: 2x servers did not reduce waiting (%v vs %v)",
				x, fast.Waiting[x], slow.Waiting[x])
		}
		if math.Abs(fast.Utilization[x]*2-slow.Utilization[x]) > 1e-12 {
			t.Errorf("type %d: utilization %v, want half of %v", x, fast.Utilization[x], slow.Utilization[x])
		}
	}
	if math.Abs(fast.ThroughputScale-2*slow.ThroughputScale) > 1e-9 {
		t.Errorf("2x speed should double throughput scale: %v vs %v",
			fast.ThroughputScale, slow.ThroughputScale)
	}
}

func TestHeterogeneousMixedSpeedsBetweenBounds(t *testing.T) {
	// A (1, 2) pair must sit between a homogeneous pair of slow (1,1)
	// and fast (2,2) servers in every metric.
	_, a := newAnalysis(t, 2)
	mk := func(speeds []float64) *Report {
		rep, err := a.EvaluateSpeeds(Config{Replicas: []int{2, 2, 2}}, [][]float64{speeds, speeds, speeds})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	slow := mk([]float64{1, 1})
	mixed := mk([]float64{1, 2})
	fast := mk([]float64{2, 2})
	for x := range mixed.Waiting {
		if !(mixed.Waiting[x] < slow.Waiting[x] && mixed.Waiting[x] > fast.Waiting[x]) {
			t.Errorf("type %d: mixed waiting %v not between fast %v and slow %v",
				x, mixed.Waiting[x], fast.Waiting[x], slow.Waiting[x])
		}
	}
	if !(mixed.ThroughputScale > slow.ThroughputScale && mixed.ThroughputScale < fast.ThroughputScale) {
		t.Errorf("mixed throughput %v not between %v and %v",
			mixed.ThroughputScale, slow.ThroughputScale, fast.ThroughputScale)
	}
}

func TestHeterogeneousNilEntriesAreHomogeneous(t *testing.T) {
	_, a := newAnalysis(t, 0.5)
	rep, err := a.EvaluateSpeeds(Config{Replicas: []int{1, 2, 1}}, [][]float64{nil, {1, 3}, nil})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := a.Evaluate(Config{Replicas: []int{1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Waiting[0]-plain.Waiting[0]) > 1e-12 {
		t.Errorf("nil-speed type differs: %v vs %v", rep.Waiting[0], plain.Waiting[0])
	}
	// The speed-4 engine pool beats the homogeneous 2-replica pool.
	if rep.Waiting[1] >= plain.Waiting[1] {
		t.Errorf("speed (1,3) pool waiting %v not below homogeneous %v", rep.Waiting[1], plain.Waiting[1])
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	_, a := newAnalysis(t, 0.5)
	cases := []struct {
		replicas []int
		speeds   [][]float64
		want     string
	}{
		{[]int{1, 1}, [][]float64{{1}, {1}}, "server types"},
		{[]int{1, 1, 1}, [][]float64{{1}, {1}}, "speed vectors"},
		{[]int{2, 1, 1}, [][]float64{{1}, {1}, {1}}, "speed factors"},
		{[]int{1, 1, 1}, [][]float64{{0}, {1}, {1}}, "invalid speed"},
		{[]int{1, 1, 1}, [][]float64{{-2}, {1}, {1}}, "invalid speed"},
	}
	for _, tc := range cases {
		if _, err := a.EvaluateSpeeds(Config{Replicas: tc.replicas}, tc.speeds); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("replicas %v speeds %v: err = %v, want containing %q", tc.replicas, tc.speeds, err, tc.want)
		}
	}
}

func TestHeterogeneousSaturation(t *testing.T) {
	_, a := newAnalysis(t, 4) // l_eng = 12 → needs Σs > 1.2 at b=0.1
	// engine Σs = 1 < 1.2
	rep, err := a.EvaluateSpeeds(Config{Replicas: []int{2, 1, 2}}, [][]float64{nil, {1}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.Waiting[1], 1) {
		t.Errorf("saturated heterogeneous pool waiting = %v", rep.Waiting[1])
	}
}
