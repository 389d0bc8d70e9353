// Distributed architecture study: the full Figure-2 model of the paper —
// one ORB, two workflow-engine types (order/shipping, per the
// organizational structure), two application-server types, plus the
// directory and worklist services Section 2 names — planned in seven
// dimensions, with the workflow chart and its CTMC exported as Graphviz
// DOT and the whole system as a reusable JSON spec.
//
//	go run ./examples/distributed
//	dot -Tsvg /tmp/epx-chart.dot -o epx-chart.svg   # if graphviz is installed
//	go run ./cmd/wfmsconfig -spec /tmp/epx.json -max-unavail 1e-5
package main

import (
	"fmt"
	"log"
	"os"

	"performa"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

func main() {
	env := workload.ExtendedEnvironment()
	flow := workload.EPDistributed(8)
	sys, err := performa.NewSystem(env, flow)
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. The workflow and its model --------------------------------
	m := sys.Models()[0]
	fmt.Printf("EPX workflow on %d server types: turnaround %.1f min\n", env.K(), m.Turnaround())
	r := m.ExpectedRequests()
	fmt.Println("per-instance service requests:")
	for x := 0; x < env.K(); x++ {
		fmt.Printf("  %-16s (%-13s) %6.2f\n", env.Type(x).Name, env.Type(x).Kind, r[x])
	}

	// --- 2. Plan the seven-dimensional configuration ------------------
	goals := performa.Goals{MaxWaiting: 0.002, MaxUnavailability: 1e-5}
	rec, err := sys.Plan(goals, performa.Constraints{}, performa.PlannerOptions{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan for w ≤ %.4g min, unavailability ≤ %.0e: %s (%d servers)\n",
		goals.MaxWaiting, goals.MaxUnavailability, rec.Config, rec.Cost)
	as, err := sys.Assess(rec.Config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  downtime %.1f s/year; turnaround inflated by queueing to %.4f min (bare %.4f)\n",
		as.Availability.DowntimeSecondsPerYear(),
		as.Performance.InflatedTurnaround[0], m.Turnaround())

	// --- 3. Export artifacts ------------------------------------------
	if err := os.WriteFile("/tmp/epx-chart.dot", []byte(flow.Chart.DOT()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("/tmp/epx-ctmc.dot", []byte(spec.Expand(m).Chain.DOT()), 0o644); err != nil {
		log.Fatal(err)
	}
	specFile, err := os.Create("/tmp/epx.json")
	if err != nil {
		log.Fatal(err)
	}
	defer specFile.Close()
	if err := wfjson.Encode(specFile, env, []*spec.Workflow{flow}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nexported:")
	fmt.Println("  /tmp/epx-chart.dot  (statechart, Graphviz)")
	fmt.Println("  /tmp/epx-ctmc.dot   (mapped CTMC, Graphviz)")
	fmt.Println("  /tmp/epx.json       (system spec for wfmsconfig/wfmssim -spec)")
}
