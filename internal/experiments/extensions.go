package experiments

import (
	"fmt"
	"sort"

	"performa/internal/config"
	"performa/internal/ctmc"
	"performa/internal/dist"
	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/workload"
)

// E9Distribution computes turnaround-time percentiles of the EP workflow
// via the uniformized transient analysis — an extension beyond the
// paper's mean-value results — validated against Monte-Carlo sampling of
// the same chain, and contrasted with an Erlang-4 phase-type variant of
// the activity durations (same means, lighter tail).
func E9Distribution() (*Table, error) {
	env := workload.PaperEnvironment()
	expModel, err := spec.Build(workload.EPWorkflow(1), env)
	if err != nil {
		return nil, err
	}
	erlWF := workload.EPWorkflow(1)
	for name, p := range erlWF.Profiles {
		p.DurationStages = 4
		erlWF.Profiles[name] = p
	}
	erlModel, err := spec.Build(erlWF, env)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E9",
		Title:   "EP turnaround-time percentiles (uniformization; extension beyond the paper's means)",
		Columns: []string{"quantile", "analytic exp [min]", "Monte Carlo exp [min]", "analytic Erlang-4 [min]"},
	}
	rng := dist.NewRNG(42)
	const samples = 60000
	sorted := make([]float64, samples)
	chain := spec.Expand(expModel).Chain
	for i := range sorted {
		v, err := ctmc.SampleTurnaround(chain, rng, 0)
		if err != nil {
			return nil, err
		}
		sorted[i] = v
	}
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		analytic, err := expModel.TurnaroundQuantile(q)
		if err != nil {
			return nil, err
		}
		erl, err := erlModel.TurnaroundQuantile(q)
		if err != nil {
			return nil, err
		}
		mc := sorted[int(q*float64(samples))]
		t.AddRow(f(q), fmt.Sprintf("%.3f", analytic), fmt.Sprintf("%.3f", mc), fmt.Sprintf("%.3f", erl))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean turnaround is %.3f min for both variants (phase expansion preserves all mean-value metrics)", expModel.Turnaround()),
		"Erlang-4 activity durations cut the tail percentiles: the distribution, not the mean, is what a percentile SLA buys")
	return t, nil
}

// E11Planners compares the three configuration-search algorithms: the
// paper's greedy heuristic, the exhaustive optimum, and branch-and-bound,
// the "full-fledged" alternative the paper names that certifies the
// optimum.
func E11Planners() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "configuration planners compared (EP+Order+Loan mix @ 6/min)",
		Columns: []string{"goal w_max [min]", "goal unavail", "planner", "config", "cost", "evaluations"},
	}
	a, err := mixAnalysis(3, 2, 1)
	if err != nil {
		return nil, err
	}
	opts := config.DefaultOptions()
	cons := config.Constraints{MaxReplicas: []int{8, 8, 8}}
	goalsList := []config.Goals{
		{MaxUnavailability: 1.5e-6},
		{MaxWaiting: 0.0005, MaxUnavailability: 1e-6},
	}
	for _, goals := range goalsList {
		type result struct {
			name string
			rec  *config.Recommendation
			err  error
		}
		var results []result
		g, err := config.Greedy(a, goals, cons, opts)
		results = append(results, result{"greedy", g, err})
		bb, err := config.BranchAndBound(a, goals, cons, opts)
		results = append(results, result{"branch&bound", bb, err})
		ex, err := config.Exhaustive(a, goals, cons, opts)
		results = append(results, result{"exhaustive", ex, err})
		for _, r := range results {
			if r.err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, r.err)
			}
			t.AddRow(f(goals.MaxWaiting), fmt.Sprintf("%.1e", goals.MaxUnavailability),
				r.name, r.rec.Config.String(),
				fmt.Sprintf("%d", r.rec.Cost), fmt.Sprintf("%d", r.rec.Evaluations))
		}
	}
	t.Notes = append(t.Notes,
		"branch-and-bound certifies the optimum with a fraction of the exhaustive evaluations")
	return t, nil
}

// AblationHeterogeneous quantifies the Section 4.4 heterogeneous-servers
// extension: replacing homogeneous replicas by mixed-speed replicas of
// equal total capacity.
func AblationHeterogeneous() (*Table, error) {
	t := &Table{
		ID:      "A5",
		Title:   "heterogeneous replica speeds at equal total capacity (EP @ 20/min)",
		Columns: []string{"engine fleet", "total speed", "rho", "w engine [min]", "max throughput [wf/min]"},
	}
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(20), env)
	if err != nil {
		return nil, err
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		return nil, err
	}
	fleets := []struct {
		label  string
		speeds []float64
	}{
		{"4 × 1.0", []float64{1, 1, 1, 1}},
		{"2 × 2.0", []float64{2, 2}},
		{"1 × 4.0", []float64{4}},
		{"1 × 3.0 + 2 × 0.5", []float64{3, 0.5, 0.5}},
	}
	for _, fl := range fleets {
		var total float64
		for _, s := range fl.speeds {
			total += s
		}
		cfg := perf.Config{
			Replicas: []int{4, len(fl.speeds), 4},
			Speeds:   [][]float64{nil, fl.speeds, nil},
		}
		rep, err := a.Evaluate(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fl.label, f(total), f3(rep.Utilization[1]),
			fmt.Sprintf("%.6g", rep.Waiting[1]), f3(rep.MaxWorkflowThroughput))
	}
	t.Notes = append(t.Notes,
		"equal total capacity ⇒ equal utilization and throughput; under speed-proportional load splitting every replica runs at the same ρ and the request-weighted mean wait is (replica count)·l·b²⁽²⁾/(2(1−ρ)·(Σs)²)",
		"so at fixed total capacity only the replica COUNT matters for mean waiting (fewer, faster servers pool better) — the speed mix is neutral, a non-obvious consequence of proportional splitting")
	return t, nil
}
