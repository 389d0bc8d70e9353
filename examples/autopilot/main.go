// Autopilot: the closed configuration loop of the paper's Section 7, run
// by hand with the calls wfmsd's reconfiguration controller makes — the
// designer's specification and the goals are the model, the simulator
// executes the real (different!) workload, and each observation cycle
// recalibrates the system from the audit trail, assesses the running
// configuration, and warm-starts the greedy search from it.
//
//	go run ./examples/autopilot
package main

import (
	"context"
	"fmt"
	"log"

	"performa"
	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/stream"
	"performa/internal/workload"
)

var (
	goals = config.Goals{
		MaxWaiting:        5e-5, // 3 ms
		MaxUnavailability: 1e-5,
	}
	planner = config.Options{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	}
)

func main() {
	// The designer's estimate: a quiet shop, 0.2 orders/min. Each
	// observation rewrites this model (workflow in place, environment
	// replaced by the measured one).
	env := workload.PaperEnvironment()
	flow := workload.EPWorkflow(0.2)

	// Initial deployment for the estimated load.
	current := perf.Config{Replicas: []int{2, 2, 3}}
	current = decide(env, flow, current, "initial deployment (designed for 0.2 orders/min)")

	// Reality check 1: a promotion took off — 30 orders/min hit the
	// running system. The simulator executes the real workload and the
	// audit trail recalibrates the model.
	env = observe(env, flow, 30, 120)
	current = decide(env, flow, current, "after observing a surge of ~30 orders/min")

	// Reality check 2: the market cooled to 2 orders/min.
	env = observe(env, flow, 2, 120)
	decide(env, flow, current, "after observing ~2 orders/min")
}

// observe simulates the real workload at the given rate (per minute)
// over an observation window (in minutes) and recalibrates the model
// from the trail, returning the measured environment.
func observe(env *spec.Environment, flow *spec.Workflow, rate, window float64) *spec.Environment {
	truth, err := performa.NewSystem(workload.PaperEnvironment(), workload.EPWorkflow(rate))
	if err != nil {
		log.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := truth.Simulate(performa.SimParams{
		Replicas: []int{4, 4, 4}, Seed: uint64(rate), Horizon: window,
		TrueConcurrency: true, Trail: trail,
	}); err != nil {
		log.Fatal(err)
	}
	est, err := stream.FromTrail(trail)
	if err != nil {
		log.Fatal(err)
	}
	if err := est.RequireCompleted(0); err != nil {
		log.Fatal(err)
	}
	measured, err := est.ApplySystem(env, []*spec.Workflow{flow}, calibrate.Options{Smoothing: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobserved %d instances (%d audit records); model recalibrated to %.3g orders/min\n",
		len(trail.Filter(audit.InstanceStarted)), trail.Len(), flow.ArrivalRate)
	return measured
}

// decide assesses the running configuration under the current model,
// re-plans from it (replicas may be released: the search starts at the
// deployment and trims what the goals no longer need), and returns the
// configuration to run next.
func decide(env *spec.Environment, flow *spec.Workflow, current perf.Config, label string) perf.Config {
	sys, err := performa.NewSystem(env, flow)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	as, err := config.AssessContext(ctx, sys.Analysis(), current, goals, planner)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := config.GreedyContext(ctx, sys.Analysis(), goals, config.Constraints{StartFrom: current.Replicas}, planner)
	if err != nil {
		log.Fatal(err)
	}
	verdict := "keep"
	switch {
	case rec.Cost < current.TotalServers():
		verdict = "shrink"
	case rec.Cost > current.TotalServers() || !as.Feasible():
		verdict = "grow"
	}
	fmt.Printf("%s:\n", label)
	fmt.Printf("  running %s — verdict: %s (max W^Y = %.4g, unavailability = %.3e)\n",
		current, verdict, as.Perf.MaxWaiting(), as.Unavailability)
	if verdict != "keep" {
		fmt.Printf("  reconfigure %s → %s (%d servers)\n", current, rec.Config, rec.Cost)
	}
	return rec.Config
}
