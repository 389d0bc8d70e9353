package spec

import (
	"math"
	"testing"

	"performa/internal/ctmc"
	"performa/internal/dist"
	"performa/internal/statechart"
)

// stagedWorkflow builds a one-activity workflow with the given Erlang
// stage count.
func stagedWorkflow(stages int) *Workflow {
	chart := statechart.NewBuilder("staged").
		Initial("init").
		Activity("A", "act").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
	return &Workflow{
		Name:  "staged",
		Chart: chart,
		Profiles: map[string]ActivityProfile{
			"act": {Name: "act", MeanDuration: 4, DurationStages: stages,
				Load: map[string]float64{"eng": 2}},
		},
	}
}

func TestStageExpansionPreservesMeans(t *testing.T) {
	env := testEnv(t)
	exp, err := Build(stagedWorkflow(0), env)
	if err != nil {
		t.Fatal(err)
	}
	erl, err := Build(stagedWorkflow(4), env)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp.Turnaround()-erl.Turnaround()) > 1e-9 {
		t.Errorf("turnaround changed: %v vs %v", exp.Turnaround(), erl.Turnaround())
	}
	re, rl := exp.ExpectedRequests(), erl.ExpectedRequests()
	for x := range re {
		if math.Abs(re[x]-rl[x]) > 1e-9 {
			t.Errorf("requests[%d] changed: %v vs %v", x, re[x], rl[x])
		}
	}
}

func TestStageExpansionStateLayout(t *testing.T) {
	env := testEnv(t)
	m, err := Build(stagedWorkflow(3), env)
	if err != nil {
		t.Fatal(err)
	}
	m = Expand(m)
	// 3 stages + absorbing = 4 states, named A, A#2, A#3, s_A.
	if m.Chain.N() != 4 {
		t.Fatalf("N = %d, want 4", m.Chain.N())
	}
	want := []string{"A", "A#2", "A#3", "s_A"}
	for i, name := range want {
		if m.StateNames[i] != name {
			t.Errorf("StateNames[%d] = %q, want %q", i, m.StateNames[i], name)
		}
	}
	// Residence 4/3 per stage; the activity's load divides equally
	// across the stages (each visited once per execution), so the
	// simulator spreads requests over the whole execution while every
	// expected-request quantity keeps its total.
	var total float64
	for i := 0; i < 3; i++ {
		if math.Abs(m.Chain.H[i]-4.0/3) > 1e-12 {
			t.Errorf("H[%d] = %v", i, m.Chain.H[i])
		}
		if math.Abs(m.Load.At(1, i)-2.0/3) > 1e-12 {
			t.Errorf("load[stage %d] = %v, want %v", i, m.Load.At(1, i), 2.0/3)
		}
		total += m.Load.At(1, i)
	}
	if math.Abs(total-2) > 1e-12 {
		t.Errorf("total load across stages = %v, want 2", total)
	}
}

// TestCollapsedSubworkflowStageExpansion: a parallel state whose dominant
// subworkflow is a low-variance Erlang activity must itself expand into a
// moment-matched Erlang sequence instead of one exponential state, while
// every mean quantity (turnaround, expected requests) stays exact.
func TestCollapsedSubworkflowStageExpansion(t *testing.T) {
	env := testEnv(t)
	sub := statechart.NewBuilder("inner").
		Initial("i").Activity("w", "act").Final("d").
		Transition("i", "w", 1).Transition("w", "d", 1).
		MustBuild()
	chart := statechart.NewBuilder("outer").
		Initial("init").
		Nested("par", sub).
		Final("done").
		Transition("init", "par", 1).
		Transition("par", "done", 1).
		MustBuild()
	w := &Workflow{
		Name:  "outer",
		Chart: chart,
		Profiles: map[string]ActivityProfile{
			"act": {Name: "act", MeanDuration: 4, DurationStages: 16,
				Load: map[string]float64{"eng": 8}},
		},
	}
	m, err := Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	m = Expand(m)
	// The inner chain is Erlang-16: mean 4, variance 16·(1/4)² = 1, so
	// the moment-matched parent stage count is mean²/var = 16.
	if got, want := m.Chain.N(), 17; got != want {
		t.Fatalf("N = %d, want %d (16 collapsed stages + s_A)", got, want)
	}
	if math.Abs(m.Turnaround()-4) > 1e-9 {
		t.Errorf("turnaround = %v, want 4", m.Turnaround())
	}
	r := m.ExpectedRequests()
	if math.Abs(r[1]-8) > 1e-9 {
		t.Errorf("eng requests = %v, want 8", r[1])
	}
	// Residence and load spread evenly over the 16 stages.
	var totalLoad float64
	for i := 0; i < 16; i++ {
		if math.Abs(m.Chain.H[i]-0.25) > 1e-12 {
			t.Errorf("H[%d] = %v, want 0.25", i, m.Chain.H[i])
		}
		totalLoad += m.Load.At(1, i)
	}
	if math.Abs(totalLoad-8) > 1e-9 {
		t.Errorf("total load = %v, want 8", totalLoad)
	}
}

func TestStageExpansionTightensDistribution(t *testing.T) {
	env := testEnv(t)
	exp, err := Build(stagedWorkflow(0), env)
	if err != nil {
		t.Fatal(err)
	}
	erl, err := Build(stagedWorkflow(8), env)
	if err != nil {
		t.Fatal(err)
	}
	// Same median region, but the Erlang-8 tail is much lighter: its
	// p95 must be well below the exponential p95.
	p95exp, err := exp.TurnaroundQuantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	p95erl, err := erl.TurnaroundQuantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p95erl >= p95exp*0.7 {
		t.Errorf("p95: Erlang-8 %v should be well below exponential %v", p95erl, p95exp)
	}
	// Exponential p95 = 4·ln 20.
	if want := 4 * math.Log(20); math.Abs(p95exp-want) > 1e-4 {
		t.Errorf("exponential p95 = %v, want %v", p95exp, want)
	}
}

func TestTurnaroundCDFMatchesMonteCarlo(t *testing.T) {
	env := testEnv(t)
	w := stagedWorkflow(2)
	// Add a probabilistic loop to make the distribution non-trivial.
	w.Chart = statechart.NewBuilder("loopy").
		Initial("init").
		Activity("A", "act").
		Activity("B", "act2").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "B", 1).
		Transition("B", "A", 0.3).
		Transition("B", "done", 0.7).
		MustBuild()
	w.Profiles["act2"] = ActivityProfile{Name: "act2", MeanDuration: 1, Load: map[string]float64{"eng": 1}}
	m, err := Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{5, 10, 20, 40}
	cdf, err := m.TurnaroundCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(123)
	const samples = 40000
	counts := make([]int, len(times))
	for s := 0; s < samples; s++ {
		tt, err := ctmc.SampleTurnaround(Expand(m).Chain, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, limit := range times {
			if tt <= limit {
				counts[i]++
			}
		}
	}
	for i := range times {
		mc := float64(counts[i]) / samples
		if math.Abs(mc-cdf[i]) > 0.01 {
			t.Errorf("t=%v: analytic CDF %v vs Monte Carlo %v", times[i], cdf[i], mc)
		}
	}
}

func TestNegativeStagesRejected(t *testing.T) {
	env := testEnv(t)
	w := stagedWorkflow(-2)
	if _, err := Build(w, env); err == nil {
		t.Error("negative stage count accepted")
	}
}
