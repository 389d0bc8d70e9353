package experiments

import (
	"fmt"

	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/workload"
)

// E12Extended exercises the full Figure 2 architecture with the Section 2
// extensions: seven server types (ORB, two engine types, two application
// types, directory, worklist), the distributed EP workflow routing
// subworkflow types to dedicated engines, and a greedy plan over the
// seven-dimensional configuration space.
func E12Extended() (*Table, error) {
	env := workload.ExtendedEnvironment()
	m, err := spec.Build(workload.EPDistributed(8), env)
	if err != nil {
		return nil, err
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		return nil, err
	}
	goals := config.Goals{MaxWaiting: 0.002, MaxUnavailability: 1e-5}
	rec, err := config.Greedy(a, goals, config.Constraints{}, config.DefaultOptions())
	if err != nil {
		return nil, err
	}
	rep, err := a.Evaluate(rec.Config)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E12",
		Title:   "seven-type architecture (Figure 2 + directory/worklist), EPX @ 8/min: greedy plan",
		Columns: []string{"server type", "kind", "load [req/min]", "replicas", "rho", "w [min]"},
	}
	for x := 0; x < env.K(); x++ {
		st := env.Type(x)
		t.AddRow(st.Name, st.Kind.String(),
			f3(rep.TypeLoad[x]),
			fmt.Sprintf("%d", rec.Config.Replicas[x]),
			f3(rep.Utilization[x]),
			fmt.Sprintf("%.6g", rep.Waiting[x]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("recommended configuration %s, %d servers, goals w ≤ %.4g min and unavailability ≤ %.0e met",
			rec.Config, rec.Cost, goals.MaxWaiting, goals.MaxUnavailability),
		"the planner differentiates per type: failure-prone and heavily loaded types get replicas first; the model is dimension-agnostic (k is arbitrary)")
	return t, nil
}
