package experiments

import (
	"fmt"

	"performa/internal/audit"
	"performa/internal/avail"
	"performa/internal/perf"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/stream"
	"performa/internal/workload"
)

// E7Options tunes the simulation-validation experiment.
type E7Options struct {
	// Seed drives the simulator.
	Seed uint64
	// Horizon is the simulated duration in minutes; zero means 20000.
	Horizon float64
}

// E7Validation compares the analytic models against discrete-event
// simulation measurements — the substitute for the paper's testbed
// measurements (Section 8): waiting times and utilizations per type, the
// workflow turnaround, and (with failures enabled) the availability.
func E7Validation(opts E7Options) (*Table, error) {
	if opts.Horizon <= 0 {
		opts.Horizon = 20000
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

	t := &Table{
		ID:      "E7",
		Title:   "analytic models versus discrete-event simulation (EP @ 3/min)",
		Columns: []string{"config", "metric", "analytic", "simulated", "rel err [%]"},
	}
	for _, y := range [][]int{{1, 1, 1}, {2, 2, 2}} {
		rep, err := a.Evaluate(perf.Config{Replicas: y})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(sim.Params{
			Env: env, Models: []*spec.Model{m},
			Replicas: y,
			Seed:     opts.Seed, Horizon: opts.Horizon, Warmup: opts.Horizon / 10,
			Dispatch: sim.Random,
		})
		if err != nil {
			return nil, err
		}
		cfg := perf.Config{Replicas: y}.String()
		add := func(metric string, analytic, simulated float64) {
			rel := 0.0
			if analytic != 0 {
				rel = (simulated - analytic) / analytic * 100
			}
			t.AddRow(cfg, metric, fmt.Sprintf("%.5g", analytic), fmt.Sprintf("%.5g", simulated), f3(rel))
		}
		for x := 0; x < env.K(); x++ {
			add("rho "+env.Type(x).Name, rep.Utilization[x], res.Utilization[x])
			add("w "+env.Type(x).Name, rep.Waiting[x], res.Waiting[x].Mean)
		}
		add("turnaround", m.Turnaround(), res.Turnaround[0].Mean)
	}

	// Availability validation with accelerated failure rates so the
	// simulation samples enough failure cycles.
	fastEnv := fastFailureEnv()
	fm, err := spec.Build(workload.EPWorkflow(0.5), fastEnv)
	if err != nil {
		return nil, err
	}
	replicas := []int{2, 2, 2}
	params, err := avail.ParamsFromEnvironment(fastEnv, replicas)
	if err != nil {
		return nil, err
	}
	availRep, err := avail.EvaluateProductForm(params, avail.IndependentRepair, false)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Params{
		Env: fastEnv, Models: []*spec.Model{fm},
		Replicas:       replicas,
		EnableFailures: true,
		Seed:           opts.Seed + 1, Horizon: 10 * opts.Horizon, Warmup: opts.Horizon,
		Dispatch: sim.Random,
	})
	if err != nil {
		return nil, err
	}
	rel := (res.Unavailability - availRep.Unavailability) / availRep.Unavailability * 100
	t.AddRow("(2,2,2) accel", "unavailability",
		fmt.Sprintf("%.5g", availRep.Unavailability),
		fmt.Sprintf("%.5g", res.Unavailability), f3(rel))
	t.Notes = append(t.Notes,
		"per-instance request bursts make the measured waiting sit slightly above the Poisson-based M/G/1 prediction; see EXPERIMENTS.md",
		"availability row uses accelerated failure rates (MTTF 200/100/50 min, MTTR 10 min) so downtime mass is sampled")
	return t, nil
}

// fastFailureEnv is the paper environment with failure rates accelerated
// to make availability measurable in short simulations.
func fastFailureEnv() *spec.Environment {
	types := workload.PaperEnvironment().Types()
	types[0].FailureRate = 1.0 / 200
	types[1].FailureRate = 1.0 / 100
	types[2].FailureRate = 1.0 / 50
	return spec.MustEnvironment(types...)
}

// E8Options tunes the calibration-loop experiment.
type E8Options struct {
	// Seed drives the simulator.
	Seed uint64
	// Instances is the expected number of workflow instances the
	// simulated horizon admits; zero means 400.
	Instances int
}

// E8Calibration exercises the mapping→execution→calibration loop of
// Section 7.1: the true-concurrency simulator executes the EP workflow
// through its uncollapsed chart, the calibration component estimates the
// model parameters from the audit trail, and the table reports estimated
// versus specified values.
func E8Calibration(opts E8Options) (*Table, error) {
	if opts.Instances <= 0 {
		opts.Instances = 400
	}
	env := workload.PaperEnvironment()
	// Arrivals two minutes apart on average, over the horizon that
	// admits the requested number of instances.
	const rate = 0.5
	m, err := spec.Build(workload.EPWorkflow(rate), env)
	if err != nil {
		return nil, err
	}
	trail := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m}, Replicas: []int{4, 4, 4},
		Seed: opts.Seed, Horizon: float64(opts.Instances) / rate,
		TrueConcurrency: true, Trail: trail,
	}); err != nil {
		return nil, err
	}
	est, err := stream.FromTrail(trail)
	if err != nil {
		return nil, err
	}
	started := est.Starts["EP"]

	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("calibration from the audit trail of %d simulated instances", started),
		Columns: []string{"parameter", "specified", "estimated", "samples"},
	}
	p := workload.EPBranchProbs
	probRows := []struct {
		name     string
		from, to string
		fanout   int
		want     float64
	}{
		{"P(NewOrder→CreditCardCheck)", "NewOrder_S", "CreditCardCheck_S", 2, p.PayByCreditCard},
		{"P(CreditCardCheck→exit)", "CreditCardCheck_S", "EP_EXIT_S", 2, p.CardProblem},
		{"P(CheckPayment→Reminder)", "CheckPayment_S", "Reminder_S", 2, p.ReminderLoop},
	}
	for _, row := range probRows {
		got, ok := est.TransitionProb("EP", row.from, row.to, row.fanout, 0)
		if !ok {
			got = 0
		}
		// The sample behind a branch estimate is the departures from its
		// source state: every instance for NewOrder, fewer downstream.
		t.AddRow(row.name, f3(row.want), f3(got), fmt.Sprint(est.Departures[[2]string{"EP", row.from}]))
	}
	for _, act := range []string{"NewOrder", "CheckPayment", "PickGoods"} {
		mp := est.ActivityDurations[act]
		got, n := 0.0, uint64(0)
		if mp != nil {
			got, n = mp.Mean, mp.N
		}
		t.AddRow("duration("+act+") [min]", f3(workload.EPDurations[act]), f3(got), fmt.Sprint(n))
	}
	t.AddRow("arrival rate [1/min]", f3(rate), f3(est.ArrivalRates["EP"]), fmt.Sprint(started))
	t.Notes = append(t.Notes,
		"the seeded true-concurrency simulator writes the trail, nested subchart activities included; estimates differ from the specification by sampling error only")
	return t, nil
}
