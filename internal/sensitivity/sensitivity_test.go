package sensitivity

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"performa/internal/avail"
	"performa/internal/config"
	"performa/internal/crossval"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfcommons"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

// testAnalysis mirrors the Section 5.2 example used across the config
// tests: three server types with monthly/weekly/daily failures and a
// single workflow whose activity loads all three.
func testAnalysis(t *testing.T, xi float64) *perf.Analysis {
	t.Helper()
	b, b2 := spec.ExpServiceMoments(0.002)
	mk := func(name string, kind spec.ServerKind, mttf float64) spec.ServerType {
		return spec.ServerType{
			Name: name, Kind: kind,
			MeanService: b, ServiceSecondMoment: b2,
			FailureRate: 1 / mttf, RepairRate: 1.0 / 10,
		}
	}
	env, err := spec.NewEnvironment(
		mk("orb", spec.Communication, 43200),
		mk("eng", spec.Engine, 10080),
		mk("app", spec.Application, 1440),
	)
	if err != nil {
		t.Fatal(err)
	}
	chart := statechart.NewBuilder("wf").
		Initial("init").
		Activity("A", "act").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
	w := &spec.Workflow{
		Name:  "wf",
		Chart: chart,
		Profiles: map[string]spec.ActivityProfile{
			"act": {Name: "act", MeanDuration: 5,
				Load: map[string]float64{"orb": 2, "eng": 3, "app": 3}},
		},
		ArrivalRate: xi,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testEvaluator(t *testing.T, a *perf.Analysis) *performability.Evaluator {
	t.Helper()
	ev, err := performability.NewEvaluator(a, performability.Options{Policy: performability.ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func testConfig() perf.Config {
	return perf.Config{Replicas: []int{2, 2, 3}}
}

func computeTable(t *testing.T, xi float64) *Table {
	t.Helper()
	a := testAnalysis(t, xi)
	ev := testEvaluator(t, a)
	tab, err := Compute(context.Background(), ev, testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableCoversEveryParameter(t *testing.T) {
	tab := computeTable(t, 1)
	// 3 types × 4 continuous kinds + 1 arrival + 3 replica entries.
	if want := 3*4 + 1 + 3; len(tab.Entries) != want {
		t.Fatalf("table has %d entries, want %d", len(tab.Entries), want)
	}
	seen := map[Kind]int{}
	for _, e := range tab.Entries {
		seen[e.Kind]++
		if e.Method == "failed" {
			t.Errorf("entry %s/%s not evaluable", e.Kind, e.Target)
		}
		if e.Attribution == "" {
			t.Errorf("entry %s/%s has no attribution", e.Kind, e.Target)
		}
		if len(e.DWorkflowDelays) != 1 {
			t.Errorf("entry %s/%s has %d delay derivatives, want 1", e.Kind, e.Target, len(e.DWorkflowDelays))
		}
	}
	for kind, want := range map[Kind]int{
		FailureRate: 3, RepairRate: 3, MeanService: 3,
		ServiceSecondMoment: 3, ArrivalRate: 1, Replicas: 3,
	} {
		if seen[kind] != want {
			t.Errorf("%d %s entries, want %d", seen[kind], kind, want)
		}
	}
	for i := 1; i < len(tab.Entries); i++ {
		if tab.Entries[i].Rank > tab.Entries[i-1].Rank {
			t.Fatal("entries not ranked descending")
		}
	}
	if tab.Summary == "" {
		t.Error("empty summary")
	}
}

// The physics must come out with the right signs: more failures or
// slower service hurt, faster repair helps, and an extra replica never
// hurts either metric.
func TestDerivativeSigns(t *testing.T) {
	tab := computeTable(t, 1)
	for _, e := range tab.Entries {
		switch e.Kind {
		case FailureRate:
			if e.DUnavailability <= 0 {
				t.Errorf("∂unavail/∂λ(%s) = %v, want > 0", e.Target, e.DUnavailability)
			}
		case RepairRate:
			if e.DUnavailability >= 0 {
				t.Errorf("∂unavail/∂μ(%s) = %v, want < 0", e.Target, e.DUnavailability)
			}
		case MeanService, ServiceSecondMoment, ArrivalRate:
			// Max waiting is attained at one type, so another type's
			// service perturbation can leave it flat — the workflow
			// delay sums every type and must strictly increase.
			if e.DWorkflowDelays[0] <= 0 {
				t.Errorf("∂delay/∂%s(%s) = %v, want > 0", e.Kind, e.Target, e.DWorkflowDelays[0])
			}
			if e.DMaxWaiting < 0 {
				t.Errorf("∂W/∂%s(%s) = %v, want ≥ 0", e.Kind, e.Target, e.DMaxWaiting)
			}
		case Replicas:
			if e.DMaxWaiting > 1e-12 {
				t.Errorf("∂W/∂Y(%s) = %v, want ≤ 0", e.Target, e.DMaxWaiting)
			}
			if e.DUnavailability > 1e-15 {
				t.Errorf("∂unavail/∂Y(%s) = %v, want ≤ 0", e.Target, e.DUnavailability)
			}
		}
	}
}

// The warm-cache path must be invisible in the numbers: recomputing one
// derivative by hand with completely fresh evaluators (no shared
// caches) has to agree with the table.
func TestTableMatchesColdRecomputation(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	cfg := testConfig()
	tab, err := Compute(context.Background(), ev, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}

	freshPoint := func(types []spec.ServerType) (maxW, unav float64) {
		t.Helper()
		env2, err := spec.NewEnvironment(types...)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := perf.NewAnalysis(env2, a.Models())
		if err != nil {
			t.Fatal(err)
		}
		ev2 := testEvaluator(t, a2)
		res, err := ev2.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxWaiting(), 1 - res.Availability
	}

	check := func(kind Kind, x int, set func(*spec.ServerType, float64), get func(spec.ServerType) float64) {
		t.Helper()
		var entry *Entry
		for i := range tab.Entries {
			if tab.Entries[i].Kind == kind && tab.Entries[i].Index == x {
				entry = &tab.Entries[i]
				break
			}
		}
		if entry == nil {
			t.Fatalf("no %s entry for type %d", kind, x)
		}
		if entry.Method != "central" {
			t.Fatalf("%s/%d method = %s, want central", kind, x, entry.Method)
		}
		v := get(a.Env().Type(x))
		h := entry.Step
		up := a.Env().Types()
		set(&up[x], v+h)
		down := a.Env().Types()
		set(&down[x], v-h)
		wP, uP := freshPoint(up)
		wM, uM := freshPoint(down)
		wantW, wantU := (wP-wM)/(2*h), (uP-uM)/(2*h)
		if !closeRel(entry.DMaxWaiting, wantW, 1e-9) {
			t.Errorf("%s/%d ∂W = %v, cold recompute %v", kind, x, entry.DMaxWaiting, wantW)
		}
		if !closeRel(entry.DUnavailability, wantU, 1e-9) {
			t.Errorf("%s/%d ∂unavail = %v, cold recompute %v", kind, x, entry.DUnavailability, wantU)
		}
	}

	check(FailureRate, 2,
		func(s *spec.ServerType, v float64) { s.FailureRate = v },
		func(s spec.ServerType) float64 { return s.FailureRate })
	check(ServiceSecondMoment, 1,
		func(s *spec.ServerType, v float64) { s.ServiceSecondMoment = v },
		func(s spec.ServerType) float64 { return s.ServiceSecondMoment })
	check(MeanService, 0,
		func(s *spec.ServerType, v float64) { s.MeanService = v },
		func(s spec.ServerType) float64 { return s.MeanService })
}

func closeRel(got, want, tol float64) bool {
	if got == want {
		return true
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	return math.Abs(got-want) <= tol*scale
}

// Only marginals of the model's own (type, replicas) pairs may enter the
// evaluator's long-lived cache: the base configuration and its ±1
// neighbours. Perturbed λ/μ marginals are keyed by float values nothing
// looks up again, so they must never be parked there. And the evaluator
// must keep answering the original model bit for bit afterwards.
func TestComputeCachesOnlyRealMarginals(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	cfg := testConfig()
	before, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(context.Background(), ev, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	size := ev.Marginals().Size()
	if k := a.Env().K(); size > 3*k {
		t.Errorf("marginal cache holds %d entries after one table, want at most %d (base and ±1 per type)", size, 3*k)
	}
	if _, err := Compute(context.Background(), ev, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := ev.Marginals().Size(); got != size {
		t.Errorf("second table at the same configuration added %d marginals, want 0", got-size)
	}
	after, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("base evaluator changed its answer after Compute:\nbefore %+v\nafter  %+v", before, after)
	}
}

// Concurrent table computations over one shared evaluator must be
// race-clean and deterministic (the CI runs this under -race).
func TestConcurrentComputeIsConsistent(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	cfg := testConfig()
	const n = 4
	tables := make([]*Table, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab, err := Compute(context.Background(), ev, cfg, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = tab
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if tables[i] == nil || tables[0] == nil {
			t.Fatal("missing table")
		}
		for j := range tables[0].Entries {
			a, b := tables[0].Entries[j], tables[i].Entries[j]
			if a.Kind != b.Kind || a.Index != b.Index || a.DMaxWaiting != b.DMaxWaiting || a.DUnavailability != b.DUnavailability {
				t.Fatalf("table %d entry %d differs: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func TestComputeHonorsCancellation(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, ev, testConfig(), Options{}); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestComputeRejectsArityMismatch(t *testing.T) {
	a := testAnalysis(t, 1)
	ev := testEvaluator(t, a)
	if _, err := Compute(context.Background(), ev, perf.Config{Replicas: []int{1, 2}}, Options{}); err == nil {
		t.Fatal("expected arity error")
	}
}

// computeByRebuild is the route Compute took before it worked on the
// separable form, kept as its oracle: every side of every difference
// rebuilds the world — spec.NewEnvironment, perf.NewAnalysis, a fresh
// evaluator with an empty cache, a full Evaluate — one after another.
// Post-processing (elasticities, attribution, summary) is the package's
// own; the ranking is the sort.SliceStable it used then.
func computeByRebuild(ev *performability.Evaluator, cfg perf.Config) (*Table, error) {
	a := ev.Analysis()
	env := a.Env()
	k := env.K()
	if len(cfg.Replicas) != k {
		return nil, fmt.Errorf("sensitivity: %d replica counts for %d server types", len(cfg.Replicas), k)
	}
	fresh := func(a2 *perf.Analysis, cfg perf.Config) (point, error) {
		ev2, err := performability.NewEvaluator(a2, ev.Options())
		if err != nil {
			return point{}, err
		}
		res, err := ev2.Evaluate(cfg)
		if err != nil {
			return point{}, err
		}
		p := point{maxWaiting: res.MaxWaiting(), unavailability: 1 - res.Availability, delays: make([]float64, len(a2.Models()))}
		for i := range a2.Models() {
			p.delays[i] = a2.WorkflowDelay(i, res.Waiting, nil)
		}
		return p, nil
	}
	base, err := fresh(a, cfg)
	if err != nil {
		return nil, err
	}

	type param struct {
		e    Entry
		eval func(theta float64) (point, error)
	}
	var params []param
	for x := 0; x < k; x++ {
		x, st := x, env.Type(x)
		add := func(kind Kind, value float64, set func(*spec.ServerType, float64)) {
			params = append(params, param{Entry{Kind: kind, Index: x, Target: st.Name, Value: value}, func(theta float64) (point, error) {
				types := env.Types()
				set(&types[x], theta)
				env2, err := spec.NewEnvironment(types...)
				if err != nil {
					return point{}, err
				}
				a2, err := perf.NewAnalysis(env2, a.Models())
				if err != nil {
					return point{}, err
				}
				return fresh(a2, cfg)
			}})
		}
		add(FailureRate, st.FailureRate, func(s *spec.ServerType, v float64) { s.FailureRate = v })
		add(RepairRate, st.RepairRate, func(s *spec.ServerType, v float64) { s.RepairRate = v })
		add(MeanService, st.MeanService, func(s *spec.ServerType, v float64) { s.MeanService = v })
		add(ServiceSecondMoment, st.ServiceSecondMoment, func(s *spec.ServerType, v float64) { s.ServiceSecondMoment = v })
	}
	for t, m := range a.Models() {
		t := t
		params = append(params, param{Entry{Kind: ArrivalRate, Index: t, Target: m.Workflow.Name, Value: m.Workflow.ArrivalRate}, func(theta float64) (point, error) {
			if theta < 0 {
				return point{}, fmt.Errorf("sensitivity: negative arrival rate %v", theta)
			}
			models := append([]*spec.Model(nil), a.Models()...)
			m2 := *models[t]
			w2 := m2.Workflow.Clone()
			w2.ArrivalRate = theta
			m2.Workflow = w2
			models[t] = &m2
			a2, err := perf.NewAnalysis(env, models)
			if err != nil {
				return point{}, err
			}
			return fresh(a2, cfg)
		}})
	}

	var entries []Entry
	for _, ps := range params {
		e := ps.e
		e.Method = "failed"
		h := relStep * math.Abs(e.Value)
		if h == 0 {
			h = relStep
		}
		for try := 0; try < 4 && e.Method == "failed"; try++ {
			plus, errP := ps.eval(e.Value + h)
			var minus point
			errM := errNegative
			if e.Value-h >= 0 {
				minus, errM = ps.eval(e.Value - h)
			}
			switch {
			case errP == nil && errM == nil:
				e.difference("central", h, &plus, &minus, 2*h)
			case errP == nil:
				e.difference("forward", h, &plus, &base, h)
			case errM == nil:
				e.difference("backward", h, &base, &minus, h)
			}
			h /= 4
		}
		entries = append(entries, e)
	}
	for x := 0; x < k; x++ {
		y := cfg.Replicas[x]
		e := Entry{Kind: Replicas, Index: x, Target: env.Type(x).Name, Value: float64(y), Method: "failed", Step: 1}
		up := cfg.Clone()
		up.Replicas[x] = y + 1
		if plus, err := fresh(a, up); err == nil {
			down := cfg.Clone()
			down.Replicas[x] = y - 1
			if minus, err := fresh(a, down); y > 1 && err == nil {
				e.difference("central_discrete", 1, &plus, &minus, 2)
			} else {
				e.difference("forward_discrete", 1, &plus, &base, 1)
			}
		}
		entries = append(entries, e)
	}
	for i := range entries {
		finishEntry(&entries[i], base)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Rank > entries[j].Rank })
	return &Table{
		Config:             append([]int(nil), cfg.Replicas...),
		BaseMaxWaiting:     base.maxWaiting,
		BaseUnavailability: base.unavailability,
		BaseWorkflowDelays: base.delays,
		Entries:            entries,
		Summary:            summarize(entries),
	}, nil
}

// render prints every field of a table with floats as bit patterns, so
// two tables are bit-identical (NaN payloads and signed zeros included)
// exactly when their renderings are equal.
func render(t *Table) []string {
	bits := func(xs []float64) string {
		out := fmt.Sprint(xs == nil)
		for _, x := range xs {
			out += fmt.Sprintf(" %x", math.Float64bits(x))
		}
		return out
	}
	lines := []string{
		fmt.Sprintf("config %v base %x %x delays %s", t.Config, math.Float64bits(t.BaseMaxWaiting), math.Float64bits(t.BaseUnavailability), bits(t.BaseWorkflowDelays)),
		"summary " + t.Summary,
	}
	for _, e := range t.Entries {
		lines = append(lines, fmt.Sprintf("%s[%d] %q value %x dW %x dU %x dD %s eW %x eU %x rank %x %s step %x: %s",
			e.Kind, e.Index, e.Target, math.Float64bits(e.Value), math.Float64bits(e.DMaxWaiting), math.Float64bits(e.DUnavailability),
			bits(e.DWorkflowDelays), math.Float64bits(e.WaitingElasticity), math.Float64bits(e.UnavailabilityElasticity),
			math.Float64bits(e.Rank), e.Method, math.Float64bits(e.Step), e.Attribution))
	}
	return lines
}

// oracleOptions are the evaluation models the oracle sweep runs under.
var oracleOptions = []performability.Options{
	{Policy: performability.ExcludeDown},
	{Policy: performability.Strict},
	{Policy: performability.Penalty, PenaltyValue: 10},
	{Policy: performability.ExcludeDown, Discipline: avail.SingleCrew},
}

// requireMatchesRebuild computes the table both ways on a fresh
// evaluator and requires the same error text or the same table, bit for
// bit. It returns Compute's table (nil when both routes failed).
func requireMatchesRebuild(t *testing.T, name string, a *perf.Analysis, replicas []int, popts performability.Options) *Table {
	t.Helper()
	ev, err := performability.NewEvaluator(a, popts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := perf.Config{Replicas: replicas}
	got, gotErr := Compute(context.Background(), ev, cfg, Options{})
	want, wantErr := computeByRebuild(ev, cfg)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %v/%v: Compute error %v, rebuild error %v", name, popts.Policy, popts.Discipline, gotErr, wantErr)
		}
		return nil
	}
	g, w := render(got), render(want)
	if len(g) != len(w) {
		t.Fatalf("%s %v/%v: %d table lines, rebuild has %d", name, popts.Policy, popts.Discipline, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s %v/%v: table differs from the rebuild route:\n got %s\nwant %s", name, popts.Policy, popts.Discipline, g[i], w[i])
		}
	}
	return got
}

func analysisOf(t testing.TB, env *spec.Environment, flows []*spec.Workflow) *perf.Analysis {
	t.Helper()
	models, err := spec.BuildAll(flows, env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, models)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// planSearchAnalysis is the benchmark's plan-search system at one
// arrival rate with its greedy answer, the configuration the workload
// asks the table at.
func planSearchAnalysis(t testing.TB, rate float64) (*perf.Analysis, []int) {
	t.Helper()
	a := analysisOf(t, workload.ExtendedEnvironment(), []*spec.Workflow{workload.EPDistributed(rate)})
	rec, err := config.Greedy(a, config.Goals{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}, config.Constraints{},
		config.Options{Performability: oracleOptions[0]})
	if err != nil {
		t.Fatal(err)
	}
	return a, rec.Config.Replicas
}

// Compute must equal the rebuild route bit for bit — every entry field,
// the base point, the summary, the order — on the 22 corpus systems, 200
// generated systems and the three plan-search systems, under every
// saturation policy and both repair disciplines.
func TestComputeMatchesRebuildRoute(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "corpus", "systems", "*.wfjson"))
	if err != nil || len(files) != 22 {
		t.Fatalf("found %d corpus systems, want 22: %v", len(files), err)
	}
	check := func(name string, a *perf.Analysis, replicas []int) {
		for _, popts := range oracleOptions {
			if requireMatchesRebuild(t, name, a, replicas, popts) == nil {
				t.Errorf("%s %v: no table", name, popts.Policy)
			}
		}
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		check(filepath.Base(file), analysisOf(t, env, flows), wfcommons.Replicas(env))
	}
	for seed := uint64(1); seed <= 200; seed++ {
		sys, err := crossval.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d", seed), analysisOf(t, sys.Env, sys.Flows), sys.Replicas)
	}
	for _, rate := range []float64{8, 25, 50} {
		a, replicas := planSearchAnalysis(t, rate)
		check(fmt.Sprintf("plan-search %g/min", rate), a, replicas)
	}
}

// edgeSystem is a two-type, three-workflow system: "a" and "b" both
// carry load from the first two workflows, the third loads "a" alone.
// mutate adjusts the types before the environment is validated.
func edgeSystem(t *testing.T, rates [3]float64, mutate func(a, b *spec.ServerType)) *perf.Analysis {
	t.Helper()
	ba, ba2 := spec.ExpServiceMoments(0.002)
	ta := spec.ServerType{Name: "a", Kind: spec.Engine, MeanService: ba, ServiceSecondMoment: ba2, FailureRate: 1e-4, RepairRate: 0.1}
	tb := spec.ServerType{Name: "b", Kind: spec.Application, MeanService: 0.003, ServiceSecondMoment: 3e-5, FailureRate: 7e-4, RepairRate: 0.05}
	if mutate != nil {
		mutate(&ta, &tb)
	}
	env, err := spec.NewEnvironment(ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*spec.Workflow
	for i, load := range []map[string]float64{{"a": 2, "b": 3}, {"a": 1, "b": 0.5}, {"a": 4}} {
		name := fmt.Sprintf("wf%d", i)
		flows = append(flows, &spec.Workflow{
			Name: name,
			Chart: statechart.NewBuilder(name).Initial("init").Activity("A", "act").Final("done").
				Transition("init", "A", 1).Transition("A", "done", 1).MustBuild(),
			Profiles:    map[string]spec.ActivityProfile{"act": {Name: "act", MeanDuration: 5, Load: load}},
			ArrivalRate: rates[i],
		})
	}
	return analysisOf(t, env, flows)
}

// The corners the sweep does not reach, each against the rebuild route
// under every option set, with the difference scheme it must land on.
func TestComputeMatchesRebuildRouteAtEdges(t *testing.T) {
	mixed := [3]float64{3, 1.7, 0.4}
	for _, tc := range []struct {
		name     string
		rates    [3]float64
		mutate   func(a, b *spec.ServerType)
		replicas []int
		only     *performability.Options // nil: every option set
		method   map[Kind]string         // expected scheme of type 1's (or workflow 1's) entry
		infinite bool                    // the base waiting time is +Inf unless a penalty bounds it
	}{
		{name: "three-workflow mix", rates: mixed, replicas: []int{2, 3},
			method: map[Kind]string{ArrivalRate: "central", Replicas: "central_discrete", FailureRate: "central"}},
		{name: "no replica", rates: mixed, replicas: []int{2, 0}, method: map[Kind]string{Replicas: "forward_discrete"}},
		{name: "one replica", rates: mixed, replicas: []int{2, 1}, method: map[Kind]string{Replicas: "forward_discrete"}},
		{name: "never fails", rates: mixed, replicas: []int{2, 2},
			mutate: func(_, b *spec.ServerType) { b.FailureRate = 0 },
			method: map[Kind]string{FailureRate: "forward", RepairRate: "central"}},
		{name: "no failure, no repair", rates: mixed, replicas: []int{2, 2},
			mutate: func(_, b *spec.ServerType) { b.FailureRate, b.RepairRate = 0, 0 },
			method: map[Kind]string{FailureRate: "failed", RepairRate: "forward"}},
		{name: "no load", rates: [3]float64{0, 0, 2}, replicas: []int{2, 2},
			method: map[Kind]string{ArrivalRate: "forward", MeanService: "central"}},
		{name: "deterministic service", rates: mixed, replicas: []int{2, 2},
			mutate: func(_, b *spec.ServerType) { b.ServiceSecondMoment = b.MeanService * b.MeanService },
			method: map[Kind]string{MeanService: "backward", ServiceSecondMoment: "forward"}},
		{name: "saturated at Y", rates: [3]float64{300, 1.7, 0.4}, replicas: []int{3, 2}, infinite: true,
			method: map[Kind]string{MeanService: "central", Replicas: "central_discrete"}},
		// Two replicas under a single crew with 2·(λ/μ)² just below the
		// largest float: the base marginal normalises, λ+h, μ−h and a
		// third replica overflow it.
		{name: "marginal fails on one side", rates: mixed, replicas: []int{2, 2},
			mutate: func(_, b *spec.ServerType) { b.FailureRate, b.RepairRate = 9.475e153, 1 },
			only:   &oracleOptions[3],
			method: map[Kind]string{FailureRate: "backward", RepairRate: "forward", Replicas: "failed"}},
	} {
		a := edgeSystem(t, tc.rates, tc.mutate)
		sets := oracleOptions
		if tc.only != nil {
			sets = []performability.Options{*tc.only}
		}
		for _, popts := range sets {
			tab := requireMatchesRebuild(t, tc.name, a, tc.replicas, popts)
			if tab == nil {
				t.Errorf("%s %v: no table", tc.name, popts.Policy)
				continue
			}
			for _, e := range tab.Entries {
				if want, ok := tc.method[e.Kind]; ok && e.Index == 1 && e.Method != want {
					t.Errorf("%s %v/%v: %s[1] took the %q scheme, want %q", tc.name, popts.Policy, popts.Discipline, e.Kind, e.Method, want)
				}
				if tc.infinite && popts.Policy != performability.Penalty && e.Kind == MeanService && !math.IsNaN(e.DMaxWaiting) {
					t.Errorf("%s %v/%v: ∂W/∂b[%d] = %v on an infinite base, want NaN", tc.name, popts.Policy, popts.Discipline, e.Index, e.DMaxWaiting)
				}
			}
			if tc.infinite && popts.Policy != performability.Penalty && !math.IsInf(tab.BaseMaxWaiting, 1) {
				t.Errorf("%s %v/%v: base waiting time %v", tc.name, popts.Policy, popts.Discipline, tab.BaseMaxWaiting)
			}
		}
	}

	// A base point whose marginal cannot be normalised fails the table on
	// both routes with the same text.
	a := edgeSystem(t, mixed, func(_, b *spec.ServerType) { b.FailureRate, b.RepairRate = 1e300, 1e-300 })
	if tab := requireMatchesRebuild(t, "base marginal fails", a, []int{2, 2}, oracleOptions[3]); tab != nil {
		t.Error("a table came back from a model whose base marginal is not normalisable")
	}
}

// One table on the 7-type plan-search system allocates about 145 times:
// per entry its delay slice and attribution string, per perturbed λ/μ
// side the marginal it drops. The route that rebuilt an environment and
// an analysis per side took 1,612, and fmt prose with a by-value sort of
// the entries took 326; the ceiling sits under both, so neither a
// rebuild per side, nor a closure and a goroutine per entry, nor fmt's
// intermediate strings fit beneath it.
func TestComputeAllocationCeiling(t *testing.T) {
	a, replicas := planSearchAnalysis(t, 25)
	ev, err := performability.NewEvaluator(a, oracleOptions[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := perf.Config{Replicas: replicas}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Compute(context.Background(), ev, cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 200
	t.Logf("%v allocations per table", allocs)
	if allocs > ceiling {
		t.Errorf("Compute allocates %v times per 7-type table, ceiling %d", allocs, ceiling)
	}
}

// TestComputeAllocationPin pins one table on the paper's system (EP
// and order mix, Y = (2,2,3), the served ExcludeDown model) at about 75
// allocations (169 while the prose went through fmt).
func TestComputeAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a := analysisOf(t, workload.PaperEnvironment(), []*spec.Workflow{workload.EPWorkflow(5), workload.OrderWorkflow(3)})
	ev, err := performability.NewEvaluator(a, oracleOptions[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := perf.Config{Replicas: []int{2, 2, 3}}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Compute(context.Background(), ev, cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 90 {
		t.Errorf("Compute allocates %v times per paper-system table, want ≤ 90", allocs)
	}
}

// Under Strict every type waits +Inf; a workflow that never calls some
// type must still report a +Inf base delay, not 0·Inf = NaN.
func TestStrictBaseDelaysAreInfNotNaN(t *testing.T) {
	sys, err := crossval.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	a := analysisOf(t, sys.Env, sys.Flows)
	ev, err := performability.NewEvaluator(a, performability.Options{Policy: performability.Strict})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(context.Background(), ev, perf.Config{Replicas: sys.Replicas}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range tab.BaseWorkflowDelays {
		if !math.IsInf(d, 1) {
			t.Errorf("workflow %d base delay = %v under Strict, want +Inf", i, d)
		}
	}
}
