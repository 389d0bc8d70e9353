package spec_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/avail"
	"performa/internal/config"
	"performa/internal/crossval"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/sensitivity"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

// oracleSystem is one system both builds run on.
type oracleSystem struct {
	name  string
	env   *spec.Environment
	flows []*spec.Workflow
}

func decodeFile(tb testing.TB, path string) (*spec.Environment, []*spec.Workflow) {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	env, flows, err := wfjson.Decode(f)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return env, flows
}

func corpusSystems(tb testing.TB) []oracleSystem {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "corpus", "systems", "*.wfjson"))
	if err != nil || len(files) != 22 {
		tb.Fatalf("found %d corpus systems, want 22: %v", len(files), err)
	}
	var out []oracleSystem
	for _, file := range files {
		env, flows := decodeFile(tb, file)
		out = append(out, oracleSystem{filepath.Base(file), env, flows})
	}
	return out
}

// oracleSystems returns the 22 corpus systems, crossval.Generate(1..200)
// and the paper and extended workload systems.
func oracleSystems(tb testing.TB) []oracleSystem {
	tb.Helper()
	out := corpusSystems(tb)
	for seed := uint64(1); seed <= 200; seed++ {
		sys, err := crossval.Generate(seed)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, oracleSystem{fmt.Sprintf("seed %d", seed), sys.Env, sys.Flows})
	}
	return append(out,
		oracleSystem{"paper", workload.PaperEnvironment(),
			[]*spec.Workflow{workload.EPWorkflow(3), workload.OrderWorkflow(2), workload.LoanWorkflow(1)}},
		oracleSystem{"extended", workload.ExtendedEnvironment(), []*spec.Workflow{workload.EPDistributed(8)}})
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// checkChartLevel holds Build's chart-level model to the stage-expanded
// build of the same workflow.
func checkChartLevel(t *testing.T, name string, m, want *spec.Model) {
	t.Helper()
	mean, wantMean := m.Turnaround(), want.Turnaround()
	if e := relErr(mean, wantMean); e > 1e-12 {
		t.Errorf("%s: turnaround %v, expanded %v (rel %.3g)", name, mean, wantMean, e)
	}
	v, wantV := spec.Variance(m), spec.Variance(want)
	if e := relErr(v+mean*mean, wantV+wantMean*wantMean); e > 1e-12 {
		t.Errorf("%s: E[T²] %v, expanded %v (rel %.3g)", name, v+mean*mean, wantV+wantMean*wantMean, e)
	}
	if e := relErr(v, wantV); e > 1e-10 {
		t.Errorf("%s: variance %v, expanded %v (rel %.3g)", name, v, wantV, e)
	}
	// The importer scales corpus arrival rates by the request vector, so
	// it must not move at all.
	if r, wantR := m.ExpectedRequests(), want.ExpectedRequests(); !slices.Equal(r, wantR) {
		t.Errorf("%s: requests %v, expanded %v", name, r, wantR)
	}
	if m.ClampedStages() != want.ClampedStages() {
		t.Errorf("%s: %d clamped stages, expanded %d", name, m.ClampedStages(), want.ClampedStages())
	}
	// Expand gives every stage its state's visit count.
	visits, wantVisits := spec.Expand(m).ExpectedVisits(), want.ExpectedVisits()
	if len(visits) != len(wantVisits) {
		t.Fatalf("%s: %d visit counts, expanded %d", name, len(visits), len(wantVisits))
	}
	for j := range visits {
		if e := relErr(visits[j], wantVisits[j]); e > 1e-12 {
			t.Errorf("%s: visits[%d] %v, expanded %v", name, j, visits[j], wantVisits[j])
		}
	}
	if spec.Stages(m) == nil && (mean != wantMean || v != wantV || !slices.Equal(m.ExpectedVisits(), wantVisits)) {
		t.Errorf("%s: a chart without stages must build bit for bit as before", name)
	}
}

// checkExpand holds Expand(Build(w)) to the stage-expanded build: the
// same layout and arcs, the same residences and loads on activity stages,
// and collapsed stages within the collapse's rounding.
func checkExpand(t *testing.T, name string, w *spec.Workflow, m, want *spec.Model) {
	t.Helper()
	e := spec.Expand(m)
	if e.Chain.N() != want.Chain.N() || !slices.Equal(e.StateNames, want.StateNames) || !slices.Equal(e.Chain.Names, want.Chain.Names) {
		t.Fatalf("%s: expanded layout %v, stage-expanded build %v", name, e.StateNames, want.StateNames)
	}
	for j := range e.Chain.Arcs {
		if !slices.Equal(e.Chain.Arcs[j], want.Chain.Arcs[j]) {
			t.Errorf("%s: arcs of %s %v, expanded %v", name, e.StateNames[j], e.Chain.Arcs[j], want.Chain.Arcs[j])
		}
	}
	stages := spec.Stages(m)
	j := 0
	for i, chartName := range m.StateNames[:m.Chain.Absorbing()] {
		k := 1
		if stages != nil {
			k = stages[i]
		}
		tol := 0.0
		if len(w.Chart.States[chartName].Subcharts) > 0 {
			tol = 1e-12
		}
		for ; k > 0; k-- {
			if err := relErr(e.Chain.H[j], want.Chain.H[j]); err > tol {
				t.Errorf("%s: H[%s] %v, expanded %v", name, e.StateNames[j], e.Chain.H[j], want.Chain.H[j])
			}
			for x := 0; x < e.Load.Rows(); x++ {
				if err := relErr(e.Load.At(x, j), want.Load.At(x, j)); err > tol {
					t.Errorf("%s: load[%d][%s] %v, expanded %v", name, x, e.StateNames[j], e.Load.At(x, j), want.Load.At(x, j))
				}
			}
			j++
		}
	}
}

// Build runs over chart states; the stage-expanded build is the oracle
// for every number it serves and for the chain Expand spells out.
func TestBuildMatchesExpandedRoute(t *testing.T) {
	staged, collapsed := 0, 0
	for _, sys := range oracleSystems(t) {
		for _, w := range sys.flows {
			name := sys.name + "/" + w.Name
			m, err := spec.Build(w, sys.env)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := spec.BuildExpanded(w, sys.env)
			if err != nil {
				t.Fatalf("%s: expanded: %v", name, err)
			}
			checkChartLevel(t, name, m, want)
			checkExpand(t, name, w, m, want)
			if spec.Stages(m) != nil {
				staged++
			}
			for _, s := range w.Chart.States {
				if len(s.Subcharts) > 0 {
					collapsed++
				}
			}
		}
	}
	if staged == 0 || collapsed == 0 {
		t.Fatalf("%d staged models, %d collapsed states: the sweep misses a case", staged, collapsed)
	}
}

// plannerOptions are the saturation policies under both repair
// disciplines.
var plannerOptions = []performability.Options{
	{Policy: performability.ExcludeDown},
	{Policy: performability.Strict},
	{Policy: performability.Penalty, PenaltyValue: 10},
	{Policy: performability.ExcludeDown, Discipline: avail.SingleCrew},
	{Policy: performability.Strict, Discipline: avail.SingleCrew},
	{Policy: performability.Penalty, PenaltyValue: 10, Discipline: avail.SingleCrew},
}

// plannerGoals returns an availability goal, a waiting goal of one mean
// service time, and a per-workflow delay goal of two service times per
// request.
func plannerGoals(env *spec.Environment, models []*spec.Model) []config.Goals {
	var b float64
	for x := 0; x < env.K(); x++ {
		b = math.Max(b, env.Type(x).MeanService)
	}
	delays := make([]float64, len(models))
	for i, m := range models {
		for x, r := range m.ExpectedRequests() {
			delays[i] += 2 * r * env.Type(x).MeanService
		}
	}
	return []config.Goals{
		{MaxUnavailability: 1e-5},
		{MaxWaiting: b, MaxUnavailability: 1e-6},
		{PerWorkflowMaxDelay: delays},
	}
}

// planRoute is one build route's analysis under one evaluation model.
type planRoute struct {
	a    *perf.Analysis
	opts config.Options
}

func newPlanRoute(t *testing.T, env *spec.Environment, models []*spec.Model, popts performability.Options) planRoute {
	t.Helper()
	a, err := perf.NewAnalysis(env, models)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := performability.NewEvaluator(a, popts)
	if err != nil {
		t.Fatal(err)
	}
	return planRoute{a, config.Options{Performability: popts, Evaluator: ev}}
}

// plan renders greedy, branch-and-bound (capped one replica above
// greedy's answer) and the sensitivity ranking at greedy's answer.
func (r planRoute) plan(goals config.Goals) string {
	var b strings.Builder
	rec, err := config.Greedy(r.a, goals, config.Constraints{}, r.opts)
	if err != nil {
		return "greedy: " + err.Error()
	}
	fmt.Fprintf(&b, "greedy %v in %d", rec.Config.Replicas, rec.Evaluations)
	caps := make([]int, len(rec.Config.Replicas))
	for x, y := range rec.Config.Replicas {
		caps[x] = y + 1
	}
	bnb, err := config.BranchAndBound(r.a, goals, config.Constraints{MaxReplicas: caps}, r.opts)
	if err != nil {
		fmt.Fprintf(&b, "; bnb: %v", err)
	} else {
		fmt.Fprintf(&b, "; bnb %v in %d", bnb.Config.Replicas, bnb.Evaluations)
	}
	table, err := sensitivity.Compute(context.Background(), r.opts.Evaluator, rec.Config, sensitivity.Options{})
	if err != nil {
		fmt.Fprintf(&b, "; sensitivity: %v", err)
		return b.String()
	}
	b.WriteString("; ranking")
	for _, e := range table.Entries {
		fmt.Fprintf(&b, " %s[%d]", e.Kind, e.Index)
	}
	return b.String()
}

// The planners decide the same on either build: greedy and
// branch-and-bound configurations and evaluation counts, and the
// sensitivity ranking, under every saturation policy, both repair
// disciplines and three goal sets.
func TestPlannerDecisionsMatchExpandedRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 224 systems through three planners")
	}
	for _, sys := range oracleSystems(t) {
		chart := make([]*spec.Model, len(sys.flows))
		expanded := make([]*spec.Model, len(sys.flows))
		for i, w := range sys.flows {
			var err error
			if chart[i], err = spec.Build(w, sys.env); err != nil {
				t.Fatal(err)
			}
			if expanded[i], err = spec.BuildExpanded(w, sys.env); err != nil {
				t.Fatal(err)
			}
		}
		goals := plannerGoals(sys.env, expanded)
		for _, popts := range plannerOptions {
			got, want := newPlanRoute(t, sys.env, chart, popts), newPlanRoute(t, sys.env, expanded, popts)
			for g, goal := range goals {
				if a, b := got.plan(goal), want.plan(goal); a != b {
					t.Errorf("%s %v/%v goals %d:\n chart    %s\n expanded %s", sys.name, popts.Policy, popts.Discipline, g, a, b)
				}
			}
		}
	}
}

// A simulated trail reads the stage chain through Expand, so it is the
// same bytes as a trail of the stage-expanded build: on the EP system,
// which has no stages, and on a staged workflow without collapsed states
// (a collapsed stage's residence may differ in its last bits).
func TestSimulatedTrailMatchesExpandedRoute(t *testing.T) {
	env := workload.PaperEnvironment()
	staged := workload.LoanWorkflow(2)
	for name, p := range staged.Profiles {
		p.DurationStages = 3
		staged.Profiles[name] = p
	}
	for i, w := range []*spec.Workflow{workload.EPWorkflow(2), staged} {
		trail := func(build func(*spec.Workflow, *spec.Environment, ...spec.BuildOption) (*spec.Model, error)) []byte {
			m, err := build(w, env)
			if err != nil {
				t.Fatal(err)
			}
			tr := audit.NewTrail()
			if _, err := sim.Run(sim.Params{Env: env, Models: []*spec.Model{m}, Replicas: []int{2, 2, 2},
				Horizon: 300, Seed: 7, Trail: tr}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tr.WriteJSONLines(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		got, want := trail(spec.Build), trail(spec.BuildExpanded)
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("workflow %d: trail of %d bytes, stage-expanded build's %d bytes, not the same", i, len(got), len(want))
		}
	}
}

// TestCorpusBuildAllocationCeiling pins that the served build does not
// grow back into the stage chain: building the 22 corpus systems took
// 85,354 allocations over the 8,639-state stage chains and takes ~1,760
// over their chart states.
func TestCorpusBuildAllocationCeiling(t *testing.T) {
	systems := corpusSystems(t)
	allocs := testing.AllocsPerRun(5, func() {
		for _, sys := range systems {
			for _, w := range sys.flows {
				if _, err := spec.Build(w, sys.env); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs > 4000 {
		t.Errorf("one corpus pass of spec.Build made %.0f allocations, want at most 4,000", allocs)
	}
}

// Which invalid state an error names must not depend on map order: the
// same document gets the same error on every decode.
func TestInvalidStateErrorsAreDeterministic(t *testing.T) {
	doc := func(states, transitions string) string {
		return `{"environment": {"types": [{"name": "eng", "kind": "engine", "mean_service": 0.1}]},
		  "workflows": [{"name": "w", "arrival_rate": 1,
		    "chart": {"name": "w", "initial": "init", "final": "done",
		      "states": [{"name": "init"}, {"name": "a", "activity": "A"}, ` + states + `, {"name": "done"}],
		      "transitions": [{"from": "init", "to": "a", "prob": 1}, ` + transitions + `]},
		    "activities": [{"name": "A", "mean_duration": 1, "load": {"eng": 1}}]}]}`
	}
	cases := []struct {
		name, doc, want string
	}{
		{"two dead ends", doc(`{"name": "q", "activity": "A"}, {"name": "p", "activity": "A"}`,
			`{"from": "a", "to": "q", "prob": 0.5}, {"from": "a", "to": "p", "prob": 0.5}`),
			`state "p" is a dead end`},
		{"two interior pseudo-states", doc(`{"name": "q"}, {"name": "p"}`,
			`{"from": "a", "to": "q", "prob": 0.5}, {"from": "a", "to": "p", "prob": 0.5},
			 {"from": "q", "to": "done", "prob": 1}, {"from": "p", "to": "done", "prob": 1}`),
			`state "p" has neither`},
	}
	for _, tc := range cases {
		seen := map[string]bool{}
		for range 64 {
			env, flows, err := wfjson.Decode(strings.NewReader(tc.doc))
			if err == nil {
				_, err = spec.Build(flows[0], env)
			}
			if err == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
			seen[err.Error()] = true
		}
		if len(seen) != 1 {
			t.Errorf("%s: %d different errors over 64 decodes: %v", tc.name, len(seen), seen)
		}
		for msg := range seen {
			if !strings.Contains(msg, tc.want) {
				t.Errorf("%s: error %q, want it to name %q", tc.name, msg, tc.want)
			}
		}
	}
}

// A chart whose two states both invoke an activity and embed subcharts
// is reported at the same state every time.
func TestActivityAndSubchartErrorIsDeterministic(t *testing.T) {
	sub := statechart.NewBuilder("sub").Initial("i").Activity("s", "A").Final("d").
		Transition("i", "s", 1).Transition("s", "d", 1).MustBuild()
	seen := map[string]bool{}
	for range 64 {
		c := &statechart.Chart{
			Name: "w", Initial: "init", Final: "done",
			States: map[string]*statechart.State{
				"init": {Name: "init"},
				"y":    {Name: "y", Activity: "A", Subcharts: []*statechart.Chart{sub}},
				"x":    {Name: "x", Activity: "A", Subcharts: []*statechart.Chart{sub}},
				"done": {Name: "done"},
			},
			Transitions: []*statechart.Transition{
				{From: "init", To: "x", Prob: 1}, {From: "x", To: "y", Prob: 1}, {From: "y", To: "done", Prob: 1},
			},
		}
		seen[c.Validate().Error()] = true
	}
	if len(seen) != 1 {
		t.Fatalf("%d different errors over 64 validations: %v", len(seen), seen)
	}
	for msg := range seen {
		if !strings.Contains(msg, `state "x"`) {
			t.Errorf("error %q, want it to name state \"x\"", msg)
		}
	}
}
