// Credit-bank study: a loan-approval workflow dominated by interactive
// activities runs on the simulator; its audit trail calibrates the
// model (the mapping → execution → calibration loop of the paper's
// Section 7.1), and the calibrated model drives a configuration
// recommendation with per-server-type goals.
//
//	go run ./examples/creditbank
package main

import (
	"fmt"
	"log"

	"performa"
	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/performability"
	"performa/internal/stream"
	"performa/internal/workload"
)

func main() {
	env := workload.PaperEnvironment()

	// --- 1. Designer's initial estimates -----------------------------
	// The designer guessed uniform branch probabilities; the real
	// behavior (encoded in workload.LoanWorkflow) differs.
	designed := workload.LoanWorkflow(2)
	for _, tr := range designed.Chart.Outgoing("Score_S") {
		tr.Prob = 1.0 / 3 // wrong guess: uniform over approve/reject/review
	}
	sys, err := performa.NewSystem(env, designed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("designed model: turnaround %.1f min, engine load %.2f req/instance\n",
		sys.Models()[0].Turnaround(), sys.Models()[0].ExpectedRequests()[1])

	// --- 2. Operate the system: simulate the real behavior ----------
	// 500 loan applications expected at one per minute.
	truth, err := performa.NewSystem(env, workload.LoanWorkflow(1))
	if err != nil {
		log.Fatal(err)
	}
	trail := audit.NewTrail()
	if _, err := truth.Simulate(performa.SimParams{
		Replicas: []int{4, 4, 4}, Seed: 7, Horizon: 500,
		TrueConcurrency: true, Trail: trail,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d loan applications (%d audit records)\n",
		len(trail.Filter(audit.InstanceStarted)), trail.Len())

	// --- 3. Calibrate the designed model from the audit trail --------
	est, err := stream.FromTrail(trail)
	if err != nil {
		log.Fatal(err)
	}
	if err := est.ApplyToWorkflow(designed, env, calibrate.Options{Smoothing: 0.5}); err != nil {
		log.Fatal(err)
	}
	calibrated, err := performa.NewSystem(env, designed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calibrated branch probabilities out of credit scoring:")
	for _, tr := range designed.Chart.Outgoing("Score_S") {
		fmt.Printf("  Score → %-12s %.3f\n", tr.To, tr.Prob)
	}
	fmt.Printf("calibrated model: turnaround %.1f min, engine load %.2f req/instance\n",
		calibrated.Models()[0].Turnaround(), calibrated.Models()[0].ExpectedRequests()[1])

	// --- 4. Plan with per-type goals ----------------------------------
	// The bank wants snappy engines (interactive worklists!) but can
	// tolerate slower application servers, and five-nines availability.
	goals := performa.Goals{
		MaxWaiting:        0.01,
		PerTypeMaxWaiting: []float64{0, 0.002, 0}, // tight goal for the engine type
		MaxUnavailability: 1e-5,
	}
	rec, err := calibrated.Plan(goals, performa.Constraints{}, performa.PlannerOptions{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommended configuration: %s (%d servers)\n", rec.Config, rec.Cost)
	as, err := calibrated.Assess(rec.Config)
	if err != nil {
		log.Fatal(err)
	}
	for x := 0; x < env.K(); x++ {
		fmt.Printf("  %-10s × %d  W^Y = %.5g min\n",
			env.Type(x).Name, rec.Config.Replicas[x], as.Performability.Waiting[x])
	}
	fmt.Printf("  downtime: %.1f s/year\n", as.Availability.DowntimeSecondsPerYear())

	// --- 5. What would co-locating engine and app servers cost? ------
	// Co-location is a variant of the performance model: each of the y
	// shared computers runs one engine and one app server, so y computers
	// are saved.
	if y := rec.Config.Replicas[1]; y == rec.Config.Replicas[2] {
		colo, err := calibrated.Analysis().EvaluateColocated(rec.Config, [][]int{{1, 2}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nco-locating engine+appsrv on %d shared computers: waiting %.5g min (vs %.5g separate), %d computers saved\n",
			y, colo.Waiting[1], as.Performance.Waiting[1], y)
	}
}
