// Command wfmssim runs the discrete-event WFMS simulator against a
// configuration and prints measured versus analytically predicted
// metrics, standing in for the testbed measurements of the paper's
// Section 8.
//
// Usage:
//
//	wfmssim -workload ep -rate 3 -config 2,2,2 -horizon 20000
//	wfmssim -workload mix -rate 6 -config 2,2,3 -failures -accel 100
//	wfmssim -workload ep -rate 3 -config 2,2,2 -replications 8 -workers 4
//	wfmssim -workload ep -rate 3 -config 2,2,2 -trail run.jsonl
//
// A single simulation run is inherently sequential (one event clock),
// so -workers parallelizes across independent replications: with
// -replications N the simulator runs N times under seeds seed,
// seed+1, …, seed+N-1 on a pool of -workers goroutines and reports the
// across-replication means, which tightens the estimates the same way a
// longer horizon would while using every core.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"performa"
	"performa/internal/audit"
	"performa/internal/perf"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "ep", "built-in workflow mix: ep, order, loan, or mix")
		specFile     = flag.String("spec", "", "JSON system specification (overrides -workload/-rate/-accel; see internal/wfjson)")
		rate         = flag.Float64("rate", 3, "total workflow arrival rate per minute")
		configSpec   = flag.String("config", "2,2,2", "configuration to simulate (e.g. 2,2,3)")
		horizon      = flag.Float64("horizon", 20000, "simulated minutes")
		warmup       = flag.Float64("warmup", 0, "warm-up minutes to discard (default horizon/10)")
		seed         = flag.Uint64("seed", 42, "random seed")
		failures     = flag.Bool("failures", false, "enable server failures and repairs")
		accel        = flag.Float64("accel", 1, "failure-rate acceleration factor (for sampling downtime in short runs)")
		dispatch     = flag.String("dispatch", "random", "load partitioning: random, rr (round-robin), or shared (one queue per type)")
		replications = flag.Int("replications", 1, "independent replications under seeds seed, seed+1, ... (aggregated)")
		workers      = flag.Int("workers", 0, "parallel replication workers (0 = all CPUs, capped at -replications)")
		trailFile    = flag.String("trail", "", "write the run's audit trail as JSON lines (\"-\" for stdout; single replication only)")
	)
	flag.Parse()
	if *warmup <= 0 {
		*warmup = *horizon / 10
	}

	var env *spec.Environment
	var flows []*spec.Workflow
	var err error
	if *specFile != "" {
		f, ferr := os.Open(*specFile)
		if ferr != nil {
			fail(ferr)
		}
		env, flows, err = wfjson.Decode(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		env = workload.PaperEnvironment()
		if *accel != 1 {
			types := env.Types()
			for i := range types {
				types[i].FailureRate *= *accel
			}
			env = spec.MustEnvironment(types...)
		}
		if flows = workload.Builtin(*workloadName, *rate); flows == nil {
			fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
	}
	sys, err := performa.NewSystem(env, flows...)
	if err != nil {
		fail(err)
	}
	cfg, err := perf.ParseConfig(*configSpec, env.K())
	if err != nil {
		fail(err)
	}

	params := performa.SimParams{
		Replicas:       cfg.Replicas,
		Seed:           *seed,
		Horizon:        *horizon,
		Warmup:         *warmup,
		EnableFailures: *failures,
	}
	switch strings.ToLower(*dispatch) {
	case "random":
		params.Dispatch = sim.Random
	case "rr", "round-robin":
		params.Dispatch = sim.RoundRobin
	case "shared", "shared-queue":
		params.Dispatch = sim.SharedQueue
	default:
		fail(fmt.Errorf("unknown dispatch policy %q (want random, rr, or shared)", *dispatch))
	}
	if *replications < 1 {
		fail(fmt.Errorf("-replications must be positive, got %d", *replications))
	}
	var trail *audit.Trail
	if *trailFile != "" {
		if *replications > 1 {
			fail(fmt.Errorf("-trail records a single run; it cannot be combined with -replications %d", *replications))
		}
		trail = audit.NewTrail()
		params.Trail = trail
	}
	res, err := runReplications(sys, params, *replications, *workers)
	if err != nil {
		fail(err)
	}
	if trail != nil {
		if err := writeTrail(*trailFile, trail); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d audit records to %s\n", trail.Len(), *trailFile)
	}
	rep, err := sys.Analysis().Evaluate(cfg)
	if err != nil {
		fail(err)
	}

	if *replications > 1 {
		fmt.Printf("simulated %s for %.0f min × %d replications (warm-up %.0f, %d events, seeds %d..%d)\n",
			cfg, *horizon, *replications, *warmup, res.Events, *seed, *seed+uint64(*replications)-1)
	} else {
		fmt.Printf("simulated %s for %.0f min (warm-up %.0f, %d events, seed %d)\n",
			cfg, *horizon, *warmup, res.Events, *seed)
	}
	fmt.Printf("  %-12s %-12s %-12s %-14s %-14s %-12s %-10s\n",
		"server type", "util (sim)", "util (model)", "wait (sim)", "wait (model)", "wait p95", "requests")
	for x := 0; x < env.K(); x++ {
		fmt.Printf("  %-12s %-12.4f %-12.4f %-14.5g %-14.5g %-12.5g %-10d\n",
			env.Type(x).Name,
			res.Utilization[x], rep.Utilization[x],
			res.Waiting[x].Mean, rep.Waiting[x],
			res.WaitingP95[x],
			res.RequestsServed[x])
	}
	for i, m := range sys.Models() {
		fmt.Printf("  workflow %-8s turnaround (sim) %.4f vs (model) %.4f min; %d completed\n",
			m.Workflow.Name, res.Turnaround[i].Mean, m.Turnaround(), res.Completed[i])
	}
	if *failures {
		fmt.Printf("  observed unavailability: %.6g\n", res.Unavailability)
	}
}

// runReplications executes n independent simulation runs under
// consecutive seeds on a bounded worker pool and merges the results:
// across-replication means for the rate-like metrics, sums for the
// counters. With n = 1 it is exactly one sys.Simulate call.
func runReplications(sys *performa.System, params performa.SimParams, n, workers int) (*performa.SimResult, error) {
	if n == 1 {
		return sys.Simulate(params)
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	results := make([]*performa.SimResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := params
				p.Seed = params.Seed + uint64(i)
				results[i], errs[i] = sys.Simulate(p)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replication %d (seed %d): %w", i, params.Seed+uint64(i), err)
		}
	}
	return mergeResults(results), nil
}

// mergeResults folds replication results into one report: means of the
// observed rates and waiting times, sums of the event and completion
// counters.
func mergeResults(results []*performa.SimResult) *performa.SimResult {
	n := float64(len(results))
	out := *results[0]
	out.Waiting = append([]sim.Moments(nil), results[0].Waiting...)
	out.WaitingP95 = append([]float64(nil), results[0].WaitingP95...)
	out.Utilization = append([]float64(nil), results[0].Utilization...)
	out.Turnaround = append([]sim.Moments(nil), results[0].Turnaround...)
	out.Completed = append([]uint64(nil), results[0].Completed...)
	out.RequestsServed = append([]uint64(nil), results[0].RequestsServed...)
	for _, r := range results[1:] {
		for x := range out.Waiting {
			out.Waiting[x].Mean += r.Waiting[x].Mean
			out.WaitingP95[x] += r.WaitingP95[x]
			out.Utilization[x] += r.Utilization[x]
			out.RequestsServed[x] += r.RequestsServed[x]
		}
		for i := range out.Turnaround {
			out.Turnaround[i].Mean += r.Turnaround[i].Mean
			out.Completed[i] += r.Completed[i]
		}
		out.Unavailability += r.Unavailability
		out.Events += r.Events
	}
	for x := range out.Waiting {
		out.Waiting[x].Mean /= n
		out.WaitingP95[x] /= n
		out.Utilization[x] /= n
	}
	for i := range out.Turnaround {
		out.Turnaround[i].Mean /= n
	}
	out.Unavailability /= n
	return &out
}

// writeTrail dumps the recorded audit trail as JSON lines, the format
// wfmsreplay and POST /v1/events consume.
func writeTrail(path string, trail *audit.Trail) error {
	if path == "-" {
		return trail.WriteJSONLines(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trail.WriteJSONLines(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wfmssim:", err)
	os.Exit(1)
}
