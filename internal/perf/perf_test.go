package perf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"performa/internal/spec"
	"performa/internal/statechart"
)

func testEnv(t *testing.T) *spec.Environment {
	t.Helper()
	b, b2 := spec.ExpServiceMoments(0.1)
	env, err := spec.NewEnvironment(
		spec.ServerType{Name: "orb", Kind: spec.Communication, MeanService: b, ServiceSecondMoment: b2},
		spec.ServerType{Name: "eng", Kind: spec.Engine, MeanService: b, ServiceSecondMoment: b2},
		spec.ServerType{Name: "app", Kind: spec.Application, MeanService: b, ServiceSecondMoment: b2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// linearModel builds a one-activity workflow: 2s activity, loads
// orb=2, eng=3, app=3, with the given arrival rate.
func linearModel(t *testing.T, env *spec.Environment, name string, xi float64) *spec.Model {
	t.Helper()
	chart := statechart.NewBuilder(name).
		Initial("init").
		Activity("A", "act-"+name).
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
	w := &spec.Workflow{
		Name:  name,
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"act-" + name: {Name: "act-" + name, MeanDuration: 2,
				Load: map[string]float64{"orb": 2, "eng": 3, "app": 3}},
		},
		ArrivalRate: xi,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newAnalysis(t *testing.T, xi float64) (*spec.Environment, *Analysis) {
	t.Helper()
	env := testEnv(t)
	a, err := NewAnalysis(env, []*spec.Model{linearModel(t, env, "wf", xi)})
	if err != nil {
		t.Fatal(err)
	}
	return env, a
}

func TestNewAnalysisValidation(t *testing.T) {
	env := testEnv(t)
	if _, err := NewAnalysis(nil, nil); err == nil {
		t.Error("nil environment accepted")
	}
	if _, err := NewAnalysis(env, nil); err == nil {
		t.Error("empty model list accepted")
	}
	if _, err := NewAnalysis(env, []*spec.Model{{}}); err == nil {
		t.Error("workflow-less model accepted")
	}
}

func TestAggregateLoadTwoWorkflows(t *testing.T) {
	env := testEnv(t)
	m1 := linearModel(t, env, "a", 0.5)
	m2 := linearModel(t, env, "b", 1.5)
	a, err := NewAnalysis(env, []*spec.Model{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	// l_x = (0.5+1.5)·r_x; r = (2,3,3).
	want := []float64{4, 6, 6}
	for x := range want {
		if l := a.TypeLoad(x); math.Abs(l-want[x]) > 1e-9 {
			t.Errorf("l[%d] = %v, want %v", x, l, want[x])
		}
	}
	// The throughput bound scales the total workflow rate Σ_t ξ_t = 2.
	rep, err := a.Evaluate(Config{Replicas: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.MaxWorkflowThroughput / rep.ThroughputScale; math.Abs(got-2) > 1e-12 {
		t.Errorf("total rate = %v", got)
	}
}

func TestEvaluateBaseline(t *testing.T) {
	_, a := newAnalysis(t, 0.5) // l = (1, 1.5, 1.5)
	rep, err := a.Evaluate(Config{Replicas: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantRho := []float64{0.1, 0.15, 0.15}
	for x := range wantRho {
		if math.Abs(rep.Utilization[x]-wantRho[x]) > 1e-9 {
			t.Errorf("ρ[%d] = %v, want %v", x, rep.Utilization[x], wantRho[x])
		}
	}
	// Exponential service: w = ρ b / (1 - ρ).
	for x, rho := range wantRho {
		want := rho * 0.1 / (1 - rho)
		if math.Abs(rep.Waiting[x]-want) > 1e-9 {
			t.Errorf("w[%d] = %v, want %v", x, rep.Waiting[x], want)
		}
	}
	if rep.Bottleneck != 1 {
		t.Errorf("bottleneck = %d, want 1 (eng)", rep.Bottleneck)
	}
	if want := 1 / (0.1 * 1.5); math.Abs(rep.ThroughputScale-want) > 1e-9 {
		t.Errorf("scale = %v, want %v", rep.ThroughputScale, want)
	}
	if want := 0.5 / (0.1 * 1.5); math.Abs(rep.MaxWorkflowThroughput-want) > 1e-9 {
		t.Errorf("max throughput = %v, want %v", rep.MaxWorkflowThroughput, want)
	}
	if rep.Saturated() {
		t.Error("unsaturated system reported saturated")
	}
}

func TestEvaluateReplicationHalvesLoad(t *testing.T) {
	_, a := newAnalysis(t, 0.5)
	one, err := a.Evaluate(Config{Replicas: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := a.Evaluate(Config{Replicas: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for x := range one.Utilization {
		if math.Abs(two.Utilization[x]*2-one.Utilization[x]) > 1e-9 {
			t.Errorf("type %d: ρ(2 replicas) = %v, want half of %v", x, two.Utilization[x], one.Utilization[x])
		}
		if two.Waiting[x] >= one.Waiting[x] {
			t.Errorf("type %d: waiting did not improve with replication", x)
		}
	}
	if math.Abs(two.ThroughputScale-2*one.ThroughputScale) > 1e-9 {
		t.Errorf("throughput scale should double: %v vs %v", two.ThroughputScale, one.ThroughputScale)
	}
}

func TestEvaluateSaturation(t *testing.T) {
	_, a := newAnalysis(t, 4) // l_eng = 12, ρ_eng = 1.2 at Y=1
	rep, err := a.Evaluate(Config{Replicas: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Saturated() {
		t.Error("saturated system not flagged")
	}
	if !math.IsInf(rep.Waiting[1], 1) {
		t.Errorf("w[eng] = %v, want +Inf", rep.Waiting[1])
	}
	if !math.IsInf(rep.MaxWaiting(), 1) {
		t.Errorf("MaxWaiting = %v, want +Inf", rep.MaxWaiting())
	}
	if rep.ThroughputScale >= 1 {
		t.Errorf("scale = %v, want < 1 for an overloaded system", rep.ThroughputScale)
	}
}

func TestEvaluateZeroReplicasWithLoad(t *testing.T) {
	_, a := newAnalysis(t, 0.5)
	rep, err := a.Evaluate(Config{Replicas: []int{1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.Waiting[1], 1) {
		t.Errorf("w[eng] = %v, want +Inf for zero replicas", rep.Waiting[1])
	}
	if rep.ThroughputScale != 0 {
		t.Errorf("scale = %v, want 0", rep.ThroughputScale)
	}
}

func TestEvaluateZeroLoadType(t *testing.T) {
	env := testEnv(t)
	chart := statechart.NewBuilder("noapp").
		Initial("init").
		Activity("A", "act").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
	w := &spec.Workflow{
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"act": {Name: "act", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
		},
		ArrivalRate: 1,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Evaluate(Config{Replicas: []int{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Waiting[0] != 0 || rep.Waiting[2] != 0 {
		t.Errorf("unused types have waiting %v, %v", rep.Waiting[0], rep.Waiting[2])
	}
	if rep.Bottleneck != 1 {
		t.Errorf("bottleneck = %d", rep.Bottleneck)
	}
}

func TestEvaluateConfigValidation(t *testing.T) {
	_, a := newAnalysis(t, 0.5)
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Replicas: []int{1, 1}}, "server types"},
		{Config{Replicas: []int{1, -1, 1}}, "negative"},
	}
	for _, tc := range cases {
		if _, err := a.Evaluate(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("cfg %v: err = %v, want containing %q", tc.cfg, err, tc.want)
		}
	}
	groups := []struct {
		replicas []int
		groups   [][]int
		want     string
	}{
		{[]int{1, 1}, [][]int{{0, 1}}, "server types"},
		{[]int{1, 1, 1}, [][]int{{0, 5}}, "unknown server type"},
		{[]int{1, 1, 1}, [][]int{{0, 1}, {1, 2}}, "more than one"},
		{[]int{1, 2, 1}, [][]int{{0, 1}}, "different replication"},
	}
	for _, tc := range groups {
		if _, err := a.EvaluateColocated(Config{Replicas: tc.replicas}, tc.groups); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("replicas %v groups %v: err = %v, want containing %q", tc.replicas, tc.groups, err, tc.want)
		}
	}
}

func TestEvaluateColocation(t *testing.T) {
	_, a := newAnalysis(t, 0.5) // l = (1, 1.5, 1.5)
	// eng and app share one computer.
	rep, err := a.EvaluateColocated(Config{Replicas: []int{1, 1, 1}}, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Merged queue: λ = 3, b = 0.1 (identical types), ρ = 0.3.
	if math.Abs(rep.Utilization[1]-0.3) > 1e-9 || math.Abs(rep.Utilization[2]-0.3) > 1e-9 {
		t.Errorf("merged ρ = %v, %v, want 0.3", rep.Utilization[1], rep.Utilization[2])
	}
	if rep.Waiting[1] != rep.Waiting[2] {
		t.Errorf("co-located types have different waiting: %v vs %v", rep.Waiting[1], rep.Waiting[2])
	}
	want := 3 * 0.02 / (2 * 0.7)
	if math.Abs(rep.Waiting[1]-want) > 1e-9 {
		t.Errorf("merged waiting = %v, want %v", rep.Waiting[1], want)
	}
	// The shared computer saturates at scale 1/(0.3); the standalone
	// orb at 1/0.1 = 10. Bottleneck is the shared computer.
	if rep.Bottleneck != 1 && rep.Bottleneck != 2 {
		t.Errorf("bottleneck = %d, want the co-located group", rep.Bottleneck)
	}
	if math.Abs(rep.ThroughputScale-1/0.3) > 1e-9 {
		t.Errorf("scale = %v, want %v", rep.ThroughputScale, 1/0.3)
	}
}

func TestWorkflowDelayDecomposition(t *testing.T) {
	_, a := newAnalysis(t, 0.5) // single workflow, r = (2,3,3)
	rep, err := a.Evaluate(Config{Replicas: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*rep.Waiting[0] + 3*rep.Waiting[1] + 3*rep.Waiting[2]
	if math.Abs(rep.WorkflowDelay[0]-want) > 1e-12 {
		t.Errorf("delay = %v, want %v", rep.WorkflowDelay[0], want)
	}
	if math.Abs(rep.InflatedTurnaround[0]-(2+want)) > 1e-12 {
		t.Errorf("inflated turnaround = %v, want %v", rep.InflatedTurnaround[0], 2+want)
	}
}

func TestWorkflowDelaySaturationPropagates(t *testing.T) {
	_, a := newAnalysis(t, 4) // saturates the engine at Y=1
	rep, err := a.Evaluate(Config{Replicas: []int{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.WorkflowDelay[0], 1) || !math.IsInf(rep.InflatedTurnaround[0], 1) {
		t.Errorf("delay = %v, inflated = %v; want +Inf under saturation",
			rep.WorkflowDelay[0], rep.InflatedTurnaround[0])
	}
}

func TestTotalServers(t *testing.T) {
	cfg := Config{Replicas: []int{2, 3, 3}}
	if got := cfg.TotalServers(); got != 8 {
		t.Errorf("TotalServers = %d, want 8", got)
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	cfg := Config{Replicas: []int{1, 2}}
	cl := cfg.Clone()
	cl.Replicas[0] = 9
	if cfg.Replicas[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestConfigString(t *testing.T) {
	if got := (Config{Replicas: []int{2, 3, 3}}).String(); got != "(2,3,3)" {
		t.Errorf("String = %q", got)
	}
}

func TestWaitingCurveShape(t *testing.T) {
	st := spec.ServerType{Name: "x", MeanService: 0.1, ServiceSecondMoment: 0.02}
	rhos := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99}
	w := WaitingCurve(st, rhos)
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Errorf("waiting not increasing at ρ=%v: %v <= %v", rhos[i], w[i], w[i-1])
		}
	}
	// Hyperbolic blow-up: w(0.99) must exceed 10x w(0.9).
	if w[5] < 5*w[4] {
		t.Errorf("no hyperbolic blow-up: w(.99)=%v vs w(.9)=%v", w[5], w[4])
	}
	sat := WaitingCurve(st, []float64{1, 1.5})
	for _, x := range sat {
		if !math.IsInf(x, 1) {
			t.Errorf("saturated waiting = %v, want +Inf", x)
		}
	}
}

func TestQuickWaitingMonotoneInUtilization(t *testing.T) {
	st := spec.ServerType{Name: "x", MeanService: 0.2, ServiceSecondMoment: 0.1}
	f := func(raw1, raw2 float64) bool {
		r1 := math.Abs(math.Mod(raw1, 1)) * 0.99
		r2 := math.Abs(math.Mod(raw2, 1)) * 0.99
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		w := WaitingCurve(st, []float64{r1, r2})
		return w[0] <= w[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickReplicationAlwaysHelps(t *testing.T) {
	_, a := newAnalysis(t, 1.0)
	f := func(seed uint8) bool {
		y := 1 + int(seed%5)
		r1, err := a.Evaluate(Config{Replicas: []int{y, y, y}})
		if err != nil {
			return false
		}
		r2, err := a.Evaluate(Config{Replicas: []int{y + 1, y + 1, y + 1}})
		if err != nil {
			return false
		}
		return r2.MaxWaiting() <= r1.MaxWaiting() && r2.ThroughputScale >= r1.ThroughputScale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
