package spec

import (
	"math"
	"strings"
	"testing"

	"performa/internal/ctmc"
	"performa/internal/statechart"
)

// testEnv returns the canonical three-type environment used across the
// spec tests: one communication server, one engine, one application
// server, all with exponential 0.1s services.
func testEnv(t *testing.T) *Environment {
	t.Helper()
	b, b2 := ExpServiceMoments(0.1)
	env, err := NewEnvironment(
		ServerType{Name: "orb", Kind: Communication, MeanService: b, ServiceSecondMoment: b2},
		ServerType{Name: "eng", Kind: Engine, MeanService: b, ServiceSecondMoment: b2},
		ServerType{Name: "app", Kind: Application, MeanService: b, ServiceSecondMoment: b2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func linearWorkflow() *Workflow {
	chart := statechart.NewBuilder("linear").
		Initial("init").
		Activity("A", "actA").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
	return &Workflow{
		Name:  "linear",
		Chart: chart,
		Profiles: map[string]ActivityProfile{
			"actA": {Name: "actA", MeanDuration: 2, Load: map[string]float64{"orb": 2, "eng": 3, "app": 3}},
		},
		ArrivalRate: 0.5,
	}
}

func TestEnvironmentValidation(t *testing.T) {
	good := ServerType{Name: "x", MeanService: 1, ServiceSecondMoment: 2, FailureRate: 0.1, RepairRate: 1}
	if _, err := NewEnvironment(good); err != nil {
		t.Errorf("valid environment rejected: %v", err)
	}
	cases := []struct {
		name string
		st   ServerType
		want string
	}{
		{"no name", ServerType{MeanService: 1, ServiceSecondMoment: 2}, "no name"},
		{"bad mean", ServerType{Name: "x", MeanService: 0, ServiceSecondMoment: 2}, "mean service"},
		{"bad second moment", ServerType{Name: "x", MeanService: 1, ServiceSecondMoment: 0.5}, "second moment"},
		{"negative failure", ServerType{Name: "x", MeanService: 1, ServiceSecondMoment: 2, FailureRate: -1}, "failure rate"},
		{"failure without repair", ServerType{Name: "x", MeanService: 1, ServiceSecondMoment: 2, FailureRate: 0.1}, "repair rate"},
		{"negative repair", ServerType{Name: "x", MeanService: 1, ServiceSecondMoment: 2, RepairRate: -0.1}, "repair rate"},
	}
	for _, tc := range cases {
		if _, err := NewEnvironment(tc.st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewEnvironment(good, good); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate: err = %v", err)
	}
	if _, err := NewEnvironment(); err == nil {
		t.Error("empty environment accepted")
	}
}

func TestEnvironmentAccessors(t *testing.T) {
	env := testEnv(t)
	if env.K() != 3 {
		t.Errorf("K = %d", env.K())
	}
	if i, ok := env.Index("eng"); !ok || i != 1 {
		t.Errorf("Index(eng) = %d, %v", i, ok)
	}
	if _, ok := env.Index("nope"); ok {
		t.Error("unknown type found")
	}
	if env.Type(2).Name != "app" {
		t.Errorf("Type(2) = %v", env.Type(2))
	}
	types := env.Types()
	types[0].Name = "mutated"
	if env.Type(0).Name != "orb" {
		t.Error("Types exposes internal storage")
	}
}

func TestServerKindString(t *testing.T) {
	if Communication.String() != "communication" || Engine.String() != "engine" || Application.String() != "application" {
		t.Error("kind strings wrong")
	}
	if got := ServerKind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestWorkflowValidation(t *testing.T) {
	env := testEnv(t)
	w := linearWorkflow()
	if err := w.Validate(env); err != nil {
		t.Fatalf("valid workflow rejected: %v", err)
	}

	missing := linearWorkflow()
	delete(missing.Profiles, "actA")
	if err := missing.Validate(env); err == nil || !strings.Contains(err.Error(), "no profile") {
		t.Errorf("missing profile: %v", err)
	}

	badDur := linearWorkflow()
	p := badDur.Profiles["actA"]
	p.MeanDuration = 0
	badDur.Profiles["actA"] = p
	if err := badDur.Validate(env); err == nil || !strings.Contains(err.Error(), "duration") {
		t.Errorf("bad duration: %v", err)
	}

	badType := linearWorkflow()
	badType.Profiles["actA"].Load["bogus"] = 1
	if err := badType.Validate(env); err == nil || !strings.Contains(err.Error(), "unknown server type") {
		t.Errorf("unknown server type: %v", err)
	}

	negLoad := linearWorkflow()
	negLoad.Profiles["actA"].Load["orb"] = -1
	if err := negLoad.Validate(env); err == nil || !strings.Contains(err.Error(), "negative load") {
		t.Errorf("negative load: %v", err)
	}

	negArrival := linearWorkflow()
	negArrival.ArrivalRate = -1
	if err := negArrival.Validate(env); err == nil || !strings.Contains(err.Error(), "arrival") {
		t.Errorf("negative arrival: %v", err)
	}

	noChart := &Workflow{Name: "x"}
	if err := noChart.Validate(env); err == nil || !strings.Contains(err.Error(), "no chart") {
		t.Errorf("no chart: %v", err)
	}

	misKeyed := linearWorkflow()
	pp := misKeyed.Profiles["actA"]
	pp.Name = "other"
	misKeyed.Profiles["actA"] = pp
	if err := misKeyed.Validate(env); err == nil || !strings.Contains(err.Error(), "keyed") {
		t.Errorf("miskeyed profile: %v", err)
	}
}

func TestBuildLinear(t *testing.T) {
	env := testEnv(t)
	m, err := Build(linearWorkflow(), env)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Turnaround(); math.Abs(got-2) > 1e-12 {
		t.Errorf("turnaround = %v, want 2", got)
	}
	r := m.ExpectedRequests()
	want := []float64{2, 3, 3} // orb, eng, app
	for x := range want {
		if math.Abs(r[x]-want[x]) > 1e-9 {
			t.Errorf("requests[%d] = %v, want %v", x, r[x], want[x])
		}
	}
	if len(m.StateNames) != 2 || m.StateNames[0] != "A" || m.StateNames[1] != "s_A" {
		t.Errorf("StateNames = %v", m.StateNames)
	}
	v := m.ExpectedVisits()
	if math.Abs(v[0]-1) > 1e-12 {
		t.Errorf("visits = %v", v)
	}
}

func TestBuildBranchAndLoop(t *testing.T) {
	env := testEnv(t)
	// work (1s) → check (2s) → work with prob 0.3, done with prob 0.7.
	chart := statechart.NewBuilder("loopy").
		Initial("init").
		Activity("work", "Work").
		Activity("check", "Check").
		Final("done").
		Transition("init", "work", 1).
		Transition("work", "check", 1).
		Transition("check", "work", 0.3).
		Transition("check", "done", 0.7).
		MustBuild()
	w := &Workflow{
		Chart: chart,
		Profiles: map[string]ActivityProfile{
			"Work":  {Name: "Work", MeanDuration: 1, Load: map[string]float64{"eng": 2}},
			"Check": {Name: "Check", MeanDuration: 2, Load: map[string]float64{"app": 1}},
		},
	}
	m, err := Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	// Visits: work = check = 1/0.7; R = (1+2)/0.7.
	visits := 1 / 0.7
	if got, want := m.Turnaround(), 3*visits; math.Abs(got-want) > 1e-9 {
		t.Errorf("turnaround = %v, want %v", got, want)
	}
	r := m.ExpectedRequests()
	if want := 2 * visits; math.Abs(r[1]-want) > 1e-9 {
		t.Errorf("eng requests = %v, want %v", r[1], want)
	}
	if want := 1 * visits; math.Abs(r[2]-want) > 1e-9 {
		t.Errorf("app requests = %v, want %v", r[2], want)
	}
	if r[0] != 0 {
		t.Errorf("orb requests = %v, want 0", r[0])
	}
}

// TestBuildMergesParallelTransitions: two chart transitions between the
// same pair of states (distinct events, same target) become ONE arc of
// the summed probability, sorted into target order — the simulator's
// next-state draw walks the arcs cumulatively, so a split or reordered
// arc would change every seeded run.
func TestBuildMergesParallelTransitions(t *testing.T) {
	env := testEnv(t)
	chart := statechart.NewBuilder("merge").
		Initial("init").
		Activity("work", "Work").
		Activity("fix", "Fix").
		Final("done").
		Transition("init", "work", 1).
		Transition("work", "done", 0.25).
		Transition("work", "fix", 0.125).
		Transition("work", "done", 0.5).
		Transition("work", "fix", 0.125).
		Transition("fix", "done", 1).
		MustBuild()
	w := &Workflow{
		Chart: chart,
		Profiles: map[string]ActivityProfile{
			"Work": {Name: "Work", MeanDuration: 1},
			"Fix":  {Name: "Fix", MeanDuration: 2},
		},
	}
	m, err := Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	// States: work=0, fix=1, s_A=2.
	want := []ctmc.Arc{{To: 1, Prob: 0.25}, {To: 2, Prob: 0.75}}
	got := m.Chain.Arcs[0]
	if len(got) != len(want) {
		t.Fatalf("arcs out of work = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("arc %d = %v, want %v", k, got[k], want[k])
		}
	}
	if got, want := m.Turnaround(), 1+0.25*2; math.Abs(got-want) > 1e-12 {
		t.Errorf("turnaround = %v, want %v", got, want)
	}
}

func TestBuildNestedParallel(t *testing.T) {
	env := testEnv(t)
	subFast := statechart.NewBuilder("fast").
		Initial("i").Activity("f", "Fast").Final("d").
		Transition("i", "f", 1).Transition("f", "d", 1).
		MustBuild()
	subSlow := statechart.NewBuilder("slow").
		Initial("i").Activity("s", "Slow").Final("d").
		Transition("i", "s", 1).Transition("s", "d", 1).
		MustBuild()
	chart := statechart.NewBuilder("parent").
		Initial("init").
		Nested("par", subFast, subSlow).
		Final("done").
		Transition("init", "par", 1).
		Transition("par", "done", 1).
		MustBuild()
	w := &Workflow{
		Chart: chart,
		Profiles: map[string]ActivityProfile{
			"Fast": {Name: "Fast", MeanDuration: 1, Load: map[string]float64{"eng": 1, "orb": 1}},
			"Slow": {Name: "Slow", MeanDuration: 5, Load: map[string]float64{"app": 2, "orb": 1}},
		},
	}
	m, err := Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	// Section 4.2.2: residence of the parallel state = max(1, 5) = 5;
	// loads sum.
	if got := m.Turnaround(); math.Abs(got-5) > 1e-9 {
		t.Errorf("turnaround = %v, want 5", got)
	}
	r := m.ExpectedRequests()
	want := []float64{2, 1, 2}
	for x := range want {
		if math.Abs(r[x]-want[x]) > 1e-9 {
			t.Errorf("requests[%d] = %v, want %v", x, r[x], want[x])
		}
	}
}

func TestBuildLoopBackToPseudoInitial(t *testing.T) {
	env := testEnv(t)
	// a → b; b loops back to the pseudo initial state with prob 0.5.
	chart := statechart.NewBuilder("restart").
		Initial("init").
		Activity("a", "A").
		Activity("b", "B").
		Final("done").
		Transition("init", "a", 1).
		Transition("a", "b", 1).
		Transition("b", "init", 0.5).
		Transition("b", "done", 0.5).
		MustBuild()
	w := &Workflow{
		Chart: chart,
		Profiles: map[string]ActivityProfile{
			"A": {Name: "A", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
			"B": {Name: "B", MeanDuration: 1, Load: map[string]float64{"eng": 1}},
		},
	}
	m, err := Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	// Both a and b execute 2 times on average; R = 4.
	if got := m.Turnaround(); math.Abs(got-4) > 1e-9 {
		t.Errorf("turnaround = %v, want 4", got)
	}
}

// TestBuildRejectsSelfLoopThroughPseudoInitial: a first execution state
// that loops straight back through the pseudo initial state is a
// self-loop of the chart-level chain, refused whatever its stage count.
func TestBuildRejectsSelfLoopThroughPseudoInitial(t *testing.T) {
	env := testEnv(t)
	for _, stages := range []int{1, 3} {
		w := stagedWorkflow(stages)
		w.Chart = statechart.NewBuilder("retry").
			Initial("init").Activity("A", "act").Final("done").
			Transition("init", "A", 1).Transition("A", "init", 0.5).Transition("A", "done", 0.5).
			MustBuild()
		if _, err := Build(w, env); err == nil || !strings.Contains(err.Error(), "self-loop") {
			t.Errorf("%d stages: err = %v, want the self-loop refusal", stages, err)
		}
	}
}

func TestBuildRejectsInteriorPseudoState(t *testing.T) {
	env := testEnv(t)
	c := &statechart.Chart{
		Name: "bad",
		States: map[string]*statechart.State{
			"init": {Name: "init"},
			"a":    {Name: "a", Activity: "A"},
			"hub":  {Name: "hub"}, // interior pseudo-state
			"done": {Name: "done"},
		},
		Initial: "init",
		Final:   "done",
		Transitions: []*statechart.Transition{
			{From: "init", To: "a", Prob: 1},
			{From: "a", To: "hub", Prob: 1},
			{From: "hub", To: "done", Prob: 1},
		},
	}
	w := &Workflow{
		Chart: c,
		Profiles: map[string]ActivityProfile{
			"A": {Name: "A", MeanDuration: 1},
		},
	}
	if _, err := Build(w, env); err == nil || !strings.Contains(err.Error(), "pseudo-state") {
		t.Errorf("err = %v, want pseudo-state error", err)
	}
}

func TestBuildRejectsBranchingPseudoInitial(t *testing.T) {
	env := testEnv(t)
	c := &statechart.Chart{
		Name: "branchinit",
		States: map[string]*statechart.State{
			"init": {Name: "init"},
			"a":    {Name: "a", Activity: "A"},
			"b":    {Name: "b", Activity: "A"},
			"done": {Name: "done"},
		},
		Initial: "init",
		Final:   "done",
		Transitions: []*statechart.Transition{
			{From: "init", To: "a", Prob: 0.5},
			{From: "init", To: "b", Prob: 0.5},
			{From: "a", To: "done", Prob: 1},
			{From: "b", To: "done", Prob: 1},
		},
	}
	w := &Workflow{
		Chart:    c,
		Profiles: map[string]ActivityProfile{"A": {Name: "A", MeanDuration: 1}},
	}
	if _, err := Build(w, env); err == nil || !strings.Contains(err.Error(), "exactly one outgoing") {
		t.Errorf("err = %v, want single-initial error", err)
	}
}

func TestBuildRejectsEmptyWorkflow(t *testing.T) {
	env := testEnv(t)
	c := &statechart.Chart{
		Name: "empty",
		States: map[string]*statechart.State{
			"init": {Name: "init"},
			"done": {Name: "done"},
		},
		Initial: "init",
		Final:   "done",
		Transitions: []*statechart.Transition{
			{From: "init", To: "done", Prob: 1},
		},
	}
	w := &Workflow{Chart: c, Profiles: map[string]ActivityProfile{}}
	if _, err := Build(w, env); err == nil || !strings.Contains(err.Error(), "no work") {
		t.Errorf("err = %v, want no-work error", err)
	}
}

func TestModelAccessorsReturnCopies(t *testing.T) {
	env := testEnv(t)
	m, err := Build(linearWorkflow(), env)
	if err != nil {
		t.Fatal(err)
	}
	r := m.ExpectedRequests()
	r[0] = 999
	if m.ExpectedRequests()[0] == 999 {
		t.Error("ExpectedRequests exposes internal storage")
	}
	v := m.ExpectedVisits()
	v[0] = 999
	if m.ExpectedVisits()[0] == 999 {
		t.Error("ExpectedVisits exposes internal storage")
	}
}
