package sim

import (
	"math"
	"reflect"
	"testing"

	"performa/internal/audit"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// forkJoinWorkflow builds init → AND(k single-activity branches, each
// exponential with mean d) → final, with a small request load so the
// dispatch machinery is exercised too.
func forkJoinWorkflow(t *testing.T, env *spec.Environment, k int, d, arrival float64) (*spec.Workflow, *spec.Model) {
	t.Helper()
	par := &statechart.State{Name: "par"}
	for i := 0; i < k; i++ {
		sub := &statechart.Chart{
			Name: "branch" + string(rune('a'+i)),
			States: map[string]*statechart.State{
				"init": {Name: "init"},
				"work": {Name: "work", Activity: "act"},
				"fin":  {Name: "fin"},
			},
			Initial: "init",
			Final:   "fin",
			Transitions: []*statechart.Transition{
				{From: "init", To: "work", Prob: 1},
				{From: "work", To: "fin", Prob: 1},
			},
		}
		par.Subcharts = append(par.Subcharts, sub)
	}
	chart := &statechart.Chart{
		Name: "forkjoin",
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
	w := &spec.Workflow{
		Name:  "forkjoin",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"act": {Name: "act", MeanDuration: d, Load: map[string]float64{"srv": 0.5}},
		},
		ArrivalRate: arrival,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	return w, m
}

// TestTrueConcurrencyEMaxBias: with two i.i.d. exponential branches of
// mean d, the true-concurrency turnaround must match E[max] = 3d/2 and
// the collapsed-mode turnaround the collapse's max-of-means d — the
// structural blindness the -net crossval route exists to break.
func TestTrueConcurrencyEMaxBias(t *testing.T) {
	env := oneTypeEnv(t, 0.05, 0, 0)
	const d = 5.0
	_, m := forkJoinWorkflow(t, env, 2, d, 0.02)
	base := Params{
		Env:      env,
		Models:   []*spec.Model{m},
		Replicas: []int{2},
		Seed:     17,
		Horizon:  200000,
		Warmup:   2000,
	}

	conc := base
	conc.TrueConcurrency = true
	rc, err := Run(conc)
	if err != nil {
		t.Fatal(err)
	}
	wantMax := 1.5 * d
	got := rc.Turnaround[0]
	if got.N < 1000 {
		t.Fatalf("too few completions: %d", got.N)
	}
	if math.Abs(got.Mean-wantMax) > 4*got.StdErr+0.01*wantMax {
		t.Fatalf("true-concurrency turnaround %v ± %v, want E[max] = %v", got.Mean, got.StdErr, wantMax)
	}

	rcol, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	col := rcol.Turnaround[0]
	if math.Abs(col.Mean-d) > 4*col.StdErr+0.01*d {
		t.Fatalf("collapsed turnaround %v ± %v, want max-of-means = %v", col.Mean, col.StdErr, d)
	}
	if !(col.Mean < got.Mean) {
		t.Fatalf("collapsed mean %v should sit below the true-concurrency mean %v", col.Mean, got.Mean)
	}
}

// TestTrueConcurrencyDeterminism: identical seeds reproduce the full
// result bit for bit, including the fork/join token interleavings.
func TestTrueConcurrencyDeterminism(t *testing.T) {
	env := oneTypeEnv(t, 0.05, 0, 0)
	_, m := forkJoinWorkflow(t, env, 3, 2.0, 0.05)
	p := Params{
		Env:             env,
		Models:          []*spec.Model{m},
		Replicas:        []int{2},
		Seed:            99,
		Horizon:         20000,
		Warmup:          500,
		TrueConcurrency: true,
	}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with the same seed disagree:\n%+v\nvs\n%+v", a, b)
	}
	c, err := Run(Params{
		Env: p.Env, Models: p.Models, Replicas: p.Replicas,
		Seed: 100, Horizon: p.Horizon, Warmup: p.Warmup, TrueConcurrency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Turnaround, c.Turnaround) {
		t.Fatal("different seeds produced identical turnaround tallies")
	}
}

// TestTrueConcurrencyTrail: the concurrent walker records every chart
// level — instance life cycles bracketing state entries and exits under
// each state's own chart name, nested activity spans, each level's
// pseudo final entry — and attributes every service request to its
// instance and activity.
func TestTrueConcurrencyTrail(t *testing.T) {
	env := oneTypeEnv(t, 0.05, 0, 0)
	_, m := forkJoinWorkflow(t, env, 2, 1.0, 0.05)
	trail := audit.NewTrail()
	p := Params{
		Env:             env,
		Models:          []*spec.Model{m},
		Replicas:        []int{1},
		Seed:            7,
		Horizon:         5000,
		TrueConcurrency: true,
		Trail:           trail,
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var started, completed, acts, reqs uint64
	entered := map[[2]string]uint64{} // (chart, state) → entries
	left := map[[2]string]uint64{}
	for _, rec := range trail.Records() {
		switch rec.Kind {
		case audit.InstanceStarted:
			started++
		case audit.InstanceCompleted:
			completed++
		case audit.StateEntered:
			entered[[2]string{rec.Chart, rec.State}]++
		case audit.StateLeft:
			left[[2]string{rec.Chart, rec.State}]++
		case audit.ActivityStarted:
			if rec.Activity != "act" || rec.Instance == 0 {
				t.Fatalf("bad activity record: %+v", rec)
			}
			acts++
		case audit.ServiceRequest:
			if rec.Activity != "act" || rec.Instance == 0 || rec.Instance > started {
				t.Fatalf("service request not attributed to a started instance's activity: %+v", rec)
			}
			reqs++
		}
	}
	if started == 0 || completed == 0 || reqs == 0 {
		t.Fatalf("trail has %d starts, %d completions, %d requests", started, completed, reqs)
	}
	if completed != res.Completed[0] {
		t.Fatalf("trail completions %d != result completions %d", completed, res.Completed[0])
	}
	for key := range entered {
		if key[0] == "forkjoin" && key[1] != "par" && key[1] != "final" {
			t.Fatalf("state %q recorded under the top-level chart", key[1])
		}
	}
	if n := entered[[2]string{"forkjoin", "par"}]; n < completed {
		t.Fatalf("only %d 'par' entries for %d completions", n, completed)
	}
	if n := entered[[2]string{"forkjoin", "final"}]; n != completed {
		t.Fatalf("%d top-level pseudo final entries for %d completions", n, completed)
	}
	for _, branch := range []string{"brancha", "branchb"} {
		work, fin := entered[[2]string{branch, "work"}], entered[[2]string{branch, "fin"}]
		if work < completed || fin < completed || fin > work {
			t.Fatalf("chart %s: %d 'work' entries, %d pseudo final entries, %d completions", branch, work, fin, completed)
		}
		if l := left[[2]string{branch, "work"}]; l < fin {
			t.Fatalf("chart %s: %d 'work' exits for %d completed branches", branch, l, fin)
		}
	}
	if acts < 2*completed {
		t.Fatalf("%d nested activity spans for %d completed two-branch instances", acts, completed)
	}
}
