package experiments

import (
	"fmt"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/workload"
)

// E13Discovery exercises the strongest form of Section 3.2's audit-trail
// calibration: the simulator executes the loan workflow, and the
// workflow specification — control-flow graph, branch probabilities,
// activity durations, load matrix, arrival rate — is reconstructed from
// the trail alone, with no designer model. The table compares the
// discovered model against the ground truth.
func E13Discovery(seed uint64) (*Table, error) {
	env := workload.PaperEnvironment()
	// 500 instances expected at one per minute.
	const rate, instances = 1, 500
	truth := workload.LoanWorkflow(rate)
	truthModel, err := spec.Build(truth, env)
	if err != nil {
		return nil, err
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{truthModel}, Replicas: []int{4, 4, 4},
		Seed: seed, Horizon: instances / rate, TrueConcurrency: true, Trail: trail,
	}); err != nil {
		return nil, err
	}
	discovered, err := calibrate.DiscoverWorkflow(trail, "Loan", env)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E13",
		Title:   fmt.Sprintf("workflow discovery from the audit trail of %d simulated instances (no designer model)", len(trail.Filter(audit.InstanceStarted))),
		Columns: []string{"parameter", "ground truth", "discovered"},
	}
	t.AddRow("execution states", fmt.Sprintf("%d", countActivityStates(truth)),
		fmt.Sprintf("%d", countActivityStates(discovered)))
	for _, tr := range truth.Chart.Outgoing("Score_S") {
		var got float64
		for _, dr := range discovered.Chart.Outgoing("Score_S") {
			if dr.To == tr.To {
				got = dr.Prob
			}
		}
		t.AddRow("P(Score→"+tr.To+")", f3(tr.Prob), f3(got))
	}
	for _, act := range []string{"LoanApplication", "ManualReview", "Disburse"} {
		t.AddRow("duration("+act+") [min]", f3(truth.Profiles[act].MeanDuration),
			f3(discovered.Profiles[act].MeanDuration))
	}
	t.AddRow("engine load of CreditScoring [req]",
		f3(truth.Profiles["CreditScoring"].Load[workload.EngineType]),
		f3(discovered.Profiles["CreditScoring"].Load[workload.EngineType]))

	discModel, err := spec.Build(discovered, env)
	if err != nil {
		return nil, err
	}
	t.AddRow("mean turnaround [min]", f3(truthModel.Turnaround()), f3(discModel.Turnaround()))
	rt1, rt2 := truthModel.ExpectedRequests(), discModel.ExpectedRequests()
	t.AddRow("engine requests/instance", f3(rt1[1]), f3(rt2[1]))
	t.Notes = append(t.Notes,
		"discovery rebuilds the entire specification from StateEntered/StateLeft/ActivityStarted/ServiceRequest records; only flat workflows are reconstructable (nested subcharts lack parent linkage in the trail)")
	return t, nil
}

func countActivityStates(w *spec.Workflow) int {
	n := 0
	for _, s := range w.Chart.States {
		if s.Activity != "" {
			n++
		}
	}
	return n
}
