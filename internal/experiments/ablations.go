package experiments

import (
	"fmt"

	"performa/internal/avail"
	"performa/internal/ctmc"
	"performa/internal/perf"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/workload"
)

// AblationSeries compares the paper's truncated uniformized series for
// the expected service requests (Section 4.2.1) with the exact
// linear-system solve, over the truncation coverage parameter.
func AblationSeries() (*Table, error) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(1), env)
	if err != nil {
		return nil, err
	}
	exact, err := ctmc.ExpectedVisits(m.Chain)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "A1",
		Title:   "truncated uniformized series versus exact visit counts (Section 4.2.1), EP workflow",
		Columns: []string{"coverage", "steps z", "residual mass", "max |visit error|"},
	}
	for _, cov := range []float64{0.9, 0.99, 0.999, 0.9999, 0.999999} {
		res, err := ctmc.ExpectedVisitsSeries(m.Chain, ctmc.SeriesOptions{Coverage: cov})
		if err != nil {
			return nil, err
		}
		var worst float64
		for i := range exact {
			if d := abs(res.Visits[i] - exact[i]); d > worst {
				worst = d
			}
		}
		t.AddRow(f(cov), fmt.Sprintf("%d", res.Steps), fmt.Sprintf("%.3e", res.ResidualMass), fmt.Sprintf("%.3e", worst))
	}
	t.Notes = append(t.Notes,
		"the paper suggests 99% coverage; the error is already below the model's other approximations there")
	return t, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AblationRepairDiscipline contrasts independent repair (the paper's
// implicit assumption) with a single repair crew per type.
func AblationRepairDiscipline() (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "repair discipline: independent crews versus single crew per type",
		Columns: []string{"config", "downtime/yr independent", "downtime/yr single-crew", "ratio"},
	}
	env := workload.PaperEnvironment()
	for _, y := range [][]int{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {2, 2, 3}} {
		params, err := avail.ParamsFromEnvironment(env, y)
		if err != nil {
			return nil, err
		}
		ind, err := avail.EvaluateProductForm(params, avail.IndependentRepair, false)
		if err != nil {
			return nil, err
		}
		sc, err := avail.EvaluateProductForm(params, avail.SingleCrew, false)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if ind.Unavailability > 0 {
			ratio = sc.Unavailability / ind.Unavailability
		}
		t.AddRow(perf.Config{Replicas: y}.String(),
			ind.Downtime(),
			sc.Downtime(),
			f3(ratio))
	}
	t.Notes = append(t.Notes, "a single crew only matters once multiple replicas of one type can be down simultaneously")
	return t, nil
}

// AblationDispatch compares round-robin and random load partitioning in
// the simulator against the analytic M/G/1 waiting time.
func AblationDispatch(seed uint64) (*Table, error) {
	t := &Table{
		ID:      "A4",
		Title:   "load partitioning policy versus the analytic M/G/1 waiting time (EP @ 3/min, Y=(2,2,2))",
		Columns: []string{"type", "analytic w", "w random", "w round-robin"},
	}
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(3), env)
	if err != nil {
		return nil, err
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		return nil, err
	}
	rep, err := a.Evaluate(perf.Config{Replicas: []int{2, 2, 2}})
	if err != nil {
		return nil, err
	}
	run := func(d sim.DispatchPolicy) (*sim.Result, error) {
		return sim.Run(sim.Params{
			Env: env, Models: []*spec.Model{m},
			Replicas: []int{2, 2, 2},
			Seed:     seed, Horizon: 20000, Warmup: 2000,
			Dispatch: d,
		})
	}
	random, err := run(sim.Random)
	if err != nil {
		return nil, err
	}
	rr, err := run(sim.RoundRobin)
	if err != nil {
		return nil, err
	}
	for x := 0; x < env.K(); x++ {
		t.AddRow(env.Type(x).Name,
			fmt.Sprintf("%.5g", rep.Waiting[x]),
			fmt.Sprintf("%.5g", random.Waiting[x].Mean),
			fmt.Sprintf("%.5g", rr.Waiting[x].Mean))
	}
	t.Notes = append(t.Notes,
		"random splitting keeps per-server arrivals Poisson (matching the analytic model); round-robin regularizes them and waits far less at low utilization",
		"the analytic M/G/1 prediction is therefore conservative for round-robin deployments")
	return t, nil
}
