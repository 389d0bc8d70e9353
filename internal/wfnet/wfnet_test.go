package wfnet_test

import (
	"errors"
	"math"
	"testing"

	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
	"performa/internal/wfnet"
)

func testEnv(t *testing.T) *spec.Environment {
	t.Helper()
	env, err := spec.NewEnvironment(spec.ServerType{
		Name:                "srv",
		MeanService:         0.1,
		ServiceSecondMoment: 0.02,
		FailureRate:         1.0 / 1000,
		RepairRate:          1.0 / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// activityChart builds init → A(activity a1) → ... → final linear chart.
func linearChart(name string, activities ...string) *statechart.Chart {
	c := &statechart.Chart{
		Name:    name,
		States:  map[string]*statechart.State{"init": {Name: "init"}, "final": {Name: "final"}},
		Initial: "init",
		Final:   "final",
	}
	prev := "init"
	for _, a := range activities {
		st := "s_" + a
		c.States[st] = &statechart.State{Name: st, Activity: a}
		c.Transitions = append(c.Transitions, &statechart.Transition{From: prev, To: st, Prob: 1})
		prev = st
	}
	c.Transitions = append(c.Transitions, &statechart.Transition{From: prev, To: "final", Prob: 1})
	return c
}

// andChart builds init → P(k parallel single-activity subcharts) → final.
func andChart(name string, k int, activity string) *statechart.Chart {
	par := &statechart.State{Name: "par"}
	for i := 0; i < k; i++ {
		par.Subcharts = append(par.Subcharts, linearChart(
			name+"_branch"+string(rune('a'+i)), activity))
	}
	return &statechart.Chart{
		Name: name,
		States: map[string]*statechart.State{
			"init": {Name: "init"}, "par": par, "final": {Name: "final"},
		},
		Initial: "init",
		Final:   "final",
		Transitions: []*statechart.Transition{
			{From: "init", To: "par", Prob: 1},
			{From: "par", To: "final", Prob: 1},
		},
	}
}

func profiles(d float64, stages int, names ...string) map[string]spec.ActivityProfile {
	m := map[string]spec.ActivityProfile{}
	for _, n := range names {
		m[n] = spec.ActivityProfile{Name: n, MeanDuration: d, DurationStages: stages}
	}
	return m
}

// TestSequentialMatchesCollapsedModel: without AND states the collapse
// is exact, so the net oracle must reproduce spec.Build's turnaround.
func TestSequentialMatchesCollapsedModel(t *testing.T) {
	env := testEnv(t)
	for _, stages := range []int{1, 4} {
		chart := linearChart("seq", "a1", "a2", "a3")
		profs := profiles(2.5, stages, "a1", "a2", "a3")
		w := &spec.Workflow{Name: "seq", Chart: chart, Profiles: profs, ArrivalRate: 0.01}
		m, err := spec.Build(w, env)
		if err != nil {
			t.Fatal(err)
		}
		net, err := wfnet.FromWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wfnet.ExpectedDefault(net)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.Mean-m.Turnaround()) / m.Turnaround(); rel > 1e-9 {
			t.Fatalf("stages=%d: net mean %v != collapsed turnaround %v (rel %v)",
				stages, res.Mean, m.Turnaround(), rel)
		}
	}
}

// TestTwoBranchForkJoinClosedForm pins the E[max] bias analytically:
// two i.i.d. exponential branches of mean d have E[max] = 3d/2, while
// the paper's collapse reports max of means = d.
func TestTwoBranchForkJoinClosedForm(t *testing.T) {
	const d = 4.0
	chart := andChart("fork2", 2, "a1")
	profs := profiles(d, 1, "a1")

	net, err := wfnet.FromChart(chart, profs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wfnet.ExpectedDefault(net)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.5 * d
	if rel := math.Abs(res.Mean-want) / want; rel > 1e-12 {
		t.Fatalf("net mean %v, want E[max] = 3d/2 = %v (rel %v)", res.Mean, want, rel)
	}

	ref, err := wfnet.CollapsedReference(chart, profs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref-d) > 1e-12 {
		t.Fatalf("collapsed reference %v, want max-of-means = %v", ref, d)
	}
	if !(ref < res.Mean) {
		t.Fatalf("collapse %v should underestimate the true mean %v", ref, res.Mean)
	}
}

// TestKBranchHarmonic: k i.i.d. exponential branches of rate 1/d have
// E[max] = d·H_k (harmonic number).
func TestKBranchHarmonic(t *testing.T) {
	const d = 2.0
	for _, k := range []int{3, 4, 6} {
		chart := andChart("forkk", k, "a1")
		net, err := wfnet.FromChart(chart, profiles(d, 1, "a1"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := wfnet.ExpectedDefault(net)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for i := 1; i <= k; i++ {
			want += d / float64(i)
		}
		if rel := math.Abs(res.Mean-want) / want; rel > 1e-12 {
			t.Fatalf("k=%d: net mean %v, want d·H_k = %v (rel %v)", k, res.Mean, want, rel)
		}
	}
}

// TestLoopChart exercises the cyclic marking graph (Gauss-Seidel path):
// a state that retries itself via the pseudo initial state with
// probability q has expected turnaround d/(1-q).
func TestLoopChart(t *testing.T) {
	const d, q = 3.0, 0.25
	chart := &statechart.Chart{
		Name: "loop",
		States: map[string]*statechart.State{
			"init": {Name: "init"}, "work": {Name: "work", Activity: "a1"}, "final": {Name: "final"},
		},
		Initial: "init",
		Final:   "final",
		Transitions: []*statechart.Transition{
			{From: "init", To: "work", Prob: 1},
			{From: "work", To: "init", Prob: q},
			{From: "work", To: "final", Prob: 1 - q},
		},
	}
	net, err := wfnet.FromChart(chart, profiles(d, 1, "a1"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := wfnet.ExpectedDefault(net)
	if err != nil {
		t.Fatal(err)
	}
	want := d / (1 - q)
	if rel := math.Abs(res.Mean-want) / want; rel > 1e-10 {
		t.Fatalf("net mean %v, want d/(1-q) = %v (rel %v)", res.Mean, want, rel)
	}
}

// TestCollapsedReferenceMatchesSpecBuild: on charts with AND states the
// reference must still agree with spec.Build's collapsed turnaround —
// that is the pin the crossval net route uses to detect collapse faults.
func TestCollapsedReferenceMatchesSpecBuild(t *testing.T) {
	env := testEnv(t)
	chart := andChart("fork3", 3, "a1")
	// Unequal branches: make one branch two activities long.
	chart.States["par"].Subcharts[1] = linearChart("fork3_long", "a1", "a2")
	profs := profiles(1.5, 1, "a1", "a2")
	w := &spec.Workflow{Name: "fork3", Chart: chart, Profiles: profs, ArrivalRate: 0.01}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wfnet.CollapsedReference(chart, profs)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(ref-m.Turnaround()) / m.Turnaround(); rel > 1e-9 {
		t.Fatalf("collapsed reference %v != spec.Build turnaround %v (rel %v)", ref, m.Turnaround(), rel)
	}
}

// TestNonFreeChoiceRejected: two transitions share an input place with
// different presets.
func TestNonFreeChoiceRejected(t *testing.T) {
	n := &wfnet.Net{
		PlaceNames: []string{"src", "sink", "p1", "p2"},
		Initial:    0,
		Final:      1,
		Transitions: []wfnet.Transition{
			{Name: "t1", In: []int{0}, Out: []int{2, 3}, Rate: 0, Weight: 1},
			{Name: "t2", In: []int{2}, Out: []int{1}, Rate: 1},
			{Name: "t3", In: []int{2, 3}, Out: []int{1}, Rate: 1},
		},
	}
	err := n.Validate()
	if !errors.Is(err, wfmserr.ErrInvalidModel) {
		t.Fatalf("want invalid_model for non-free-choice net, got %v", err)
	}
}

// TestDeadlockRejected: a join waits on a place nothing ever marks.
func TestDeadlockRejected(t *testing.T) {
	n := &wfnet.Net{
		PlaceNames: []string{"src", "sink", "p1", "never"},
		Initial:    0,
		Final:      1,
		Transitions: []wfnet.Transition{
			{Name: "go", In: []int{0}, Out: []int{2}, Rate: 1},
			{Name: "join", In: []int{2, 3}, Out: []int{1}, Rate: 0, Weight: 1},
		},
	}
	_, err := wfnet.ExpectedDefault(n)
	if !errors.Is(err, wfmserr.ErrInvalidModel) {
		t.Fatalf("want invalid_model for deadlocking net, got %v", err)
	}
}

// TestLivelockRejected: one branch of a choice cycles forever between
// two places. Nothing deadlocks and the final marking is reachable, but
// a reachable marking cannot reach it; the finding names that marking.
func TestLivelockRejected(t *testing.T) {
	n := &wfnet.Net{
		PlaceNames: []string{"src", "sink", "ping", "pong"},
		Initial:    0,
		Final:      1,
		Transitions: []wfnet.Transition{
			{Name: "finish", In: []int{0}, Out: []int{1}, Rate: 1},
			{Name: "stray", In: []int{0}, Out: []int{2}, Rate: 1},
			{Name: "to", In: []int{2}, Out: []int{3}, Rate: 1},
			{Name: "fro", In: []int{3}, Out: []int{2}, Rate: 1},
		},
	}
	_, err := wfnet.ExpectedDefault(n)
	if !errors.Is(err, wfmserr.ErrInvalidModel) {
		t.Fatalf("want invalid_model for a livelocking net, got %v", err)
	}
	var e *wfmserr.Error
	if !errors.As(err, &e) || e.Detail["marking"] != "{ping}" {
		t.Fatalf("finding should name the first stuck marking {ping}, got %v", err)
	}
}

// TestImproperCompletionRejected: completing leaves a token behind.
func TestImproperCompletionRejected(t *testing.T) {
	n := &wfnet.Net{
		PlaceNames: []string{"src", "sink", "stuck"},
		Initial:    0,
		Final:      1,
		Transitions: []wfnet.Transition{
			{Name: "split", In: []int{0}, Out: []int{1, 2}, Rate: 1},
		},
	}
	_, err := wfnet.ExpectedDefault(n)
	if !errors.Is(err, wfmserr.ErrInvalidModel) {
		t.Fatalf("want invalid_model for improper completion, got %v", err)
	}
}

// TestUnsafeRejected: firing marks an already-marked place.
func TestUnsafeRejected(t *testing.T) {
	n := &wfnet.Net{
		PlaceNames: []string{"src", "sink", "p"},
		Initial:    0,
		Final:      1,
		Transitions: []wfnet.Transition{
			{Name: "fork", In: []int{0}, Out: []int{2}, Rate: 1},
			{Name: "dup", In: []int{2}, Out: []int{2, 2}, Rate: 1},
			{Name: "done", In: []int{2}, Out: []int{1}, Rate: 1},
		},
	}
	_, err := wfnet.ExpectedDefault(n)
	if !errors.Is(err, wfmserr.ErrInvalidModel) {
		t.Fatalf("want invalid_model for unsafe net, got %v", err)
	}
}

// TestBudgetGate: a tight marking budget rejects with a typed error
// instead of enumerating.
func TestBudgetGate(t *testing.T) {
	chart := andChart("wide", 6, "a1")
	net, err := wfnet.FromChart(chart, profiles(1, 4, "a1"))
	if err != nil {
		t.Fatal(err)
	}
	budget := wfmserr.Budget{MaxStates: 8}
	_, err = wfnet.Expected(net, budget)
	if !errors.Is(err, wfmserr.ErrStateSpaceTooLarge) {
		t.Fatalf("want state_space_too_large under tight budget, got %v", err)
	}
}

// TestErlangStagesKeepMean: stage expansion changes the distribution,
// not the mean — and tightens the fork-join bias (higher k → branch CV
// ↓ → E[max] closer to max of means).
func TestErlangStagesKeepMean(t *testing.T) {
	const d = 2.0
	mean := func(stages int) float64 {
		chart := andChart("fork2", 2, "a1")
		net, err := wfnet.FromChart(chart, profiles(d, stages, "a1"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := wfnet.ExpectedDefault(net)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean
	}
	m1, m4, m16 := mean(1), mean(4), mean(16)
	if !(m1 > m4 && m4 > m16 && m16 > d) {
		t.Fatalf("bias should shrink with stages but stay above max-of-means: m1=%v m4=%v m16=%v d=%v", m1, m4, m16, d)
	}
	if math.Abs(m1-1.5*d) > 1e-12 {
		t.Fatalf("m1 = %v, want 3d/2 = %v", m1, 1.5*d)
	}
}

// TestExpectedPinnedAcrossSolvers pins Expected on the two marking-graph
// shapes the solver has to handle — a fork-join (vanishing fork/join
// markings of zero residence, acyclic) and a chart loop around a
// fork-join (cyclic) — to the values the package's former private
// topological-pass/Gauss-Seidel solver produced, so the shared ctmc
// kernel is a drop-in replacement.
func TestExpectedPinnedAcrossSolvers(t *testing.T) {
	forkJoin := andChart("fork3", 3, "a1")
	forkJoin.States["par"].Subcharts[1] = linearChart("fork3_long", "a1", "a2")

	par := &statechart.State{Name: "par"}
	par.Subcharts = append(par.Subcharts, linearChart("lb_a", "a1"), linearChart("lb_b", "a1", "a2"))
	loop := &statechart.Chart{
		Name: "loopfork",
		States: map[string]*statechart.State{
			"init": {Name: "init"}, "par": par, "check": {Name: "check", Activity: "a2"}, "final": {Name: "final"},
		},
		Initial: "init",
		Final:   "final",
		Transitions: []*statechart.Transition{
			{From: "init", To: "par", Prob: 1},
			{From: "par", To: "check", Prob: 1},
			{From: "check", To: "par", Prob: 0.3},
			{From: "check", To: "final", Prob: 0.7},
		},
	}

	for _, tc := range []struct {
		name               string
		chart              *statechart.Chart
		mean               float64
		markings, tangible int
	}{
		{"fork-join", forkJoin, 3.3346193415637853, 52, 44},
		{"loop", loop, 6.6964285714284006, 23, 16},
	} {
		net, err := wfnet.FromChart(tc.chart, profiles(1.5, 2, "a1", "a2"))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := wfnet.ExpectedDefault(net)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rel := math.Abs(res.Mean-tc.mean) / tc.mean; rel > 1e-12 {
			t.Errorf("%s: mean %.17g, want %.17g (rel %v)", tc.name, res.Mean, tc.mean, rel)
		}
		if res.Markings != tc.markings || res.Tangible != tc.tangible {
			t.Errorf("%s: %d markings (%d tangible), want %d (%d)",
				tc.name, res.Markings, res.Tangible, tc.markings, tc.tangible)
		}
	}
}
