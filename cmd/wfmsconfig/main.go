// Command wfmsconfig is the configuration tool of the paper's Section 7:
// it assesses a given configuration of a distributed WFMS or recommends a
// near-minimum-cost configuration for specified performability and
// availability goals.
//
// Usage:
//
//	wfmsconfig -workload mix -rate 6 -assess 2,2,3
//	wfmsconfig -workload ep -rate 5 -max-wait 0.005 -max-unavail 1e-5
//	wfmsconfig -workload ep -rate 5 -max-unavail 1e-6 -exhaustive
//
// The built-in workloads run on the paper's three-server-type environment
// (time unit: minutes): ep (the Figure 3 electronic purchase), order
// (TPC-C-flavoured), loan (interactive loan approval), or mix (all three
// splitting the rate 50/30/20).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"performa"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
	"performa/internal/workload"
)

func main() {
	code := func() (code int) {
		// Residual panics (bugs the typed-error routes did not intercept)
		// must cost a one-line diagnostic and a non-zero exit, not a raw
		// Go trace. The closure keeps os.Exit outside the deferred scope
		// so run()'s own defers (profile writers) still flush.
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(os.Stderr, "wfmsconfig: internal error: %v\n", p)
				code = 2
			}
		}()
		return run()
	}()
	os.Exit(code)
}

// run holds main's body so the pprof defers flush before the process
// exits (os.Exit skips deferred calls).
func run() int {
	var (
		workloadName = flag.String("workload", "mix", "built-in workflow mix: ep, order, loan, or mix")
		specFile     = flag.String("spec", "", "JSON system specification (overrides -workload/-rate; see internal/wfjson)")
		rate         = flag.Float64("rate", 6, "total workflow arrival rate per minute")
		assessSpec   = flag.String("assess", "", "assess this configuration (e.g. 2,2,3) instead of planning")
		maxWait      = flag.Float64("max-wait", 0, "waiting-time goal in minutes (0 = none)")
		maxUnavail   = flag.Float64("max-unavail", 0, "unavailability goal (0 = none)")
		exhaustive   = flag.Bool("exhaustive", false, "use the exhaustive optimal search instead of the greedy heuristic")
		maxReplicas  = flag.Int("max-replicas", 8, "per-type replication cap for the search")
		exportSpec   = flag.Bool("export-spec", false, "print the selected built-in workload as a JSON spec and exit")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfmsconfig:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wfmsconfig:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wfmsconfig:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is representative
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wfmsconfig:", err)
			}
		}()
	}

	if *exportSpec {
		env := workload.PaperEnvironment()
		flows, err := builtinWorkflows(*workloadName, *rate)
		if err != nil {
			return fail(err)
		}
		if err := wfjson.Encode(os.Stdout, env, flows); err != nil {
			return fail(err)
		}
		return 0
	}

	var sys *performa.System
	var err error
	if *specFile != "" {
		sys, err = loadSystem(*specFile)
	} else {
		sys, err = buildSystem(*workloadName, *rate)
	}
	if err != nil {
		return fail(err)
	}

	if *assessSpec != "" {
		cfg, err := perf.ParseConfig(*assessSpec, sys.Env().K())
		if err != nil {
			return fail(err)
		}
		return assess(sys, cfg)
	}

	goals := performa.Goals{MaxWaiting: *maxWait, MaxUnavailability: *maxUnavail}
	cons := performa.Constraints{}
	if *maxReplicas > 0 {
		caps := make([]int, sys.Env().K())
		for i := range caps {
			caps[i] = *maxReplicas
		}
		cons.MaxReplicas = caps
	}
	opts := performa.PlannerOptions{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	}
	var rec *performa.Recommendation
	if *exhaustive {
		rec, err = sys.PlanExhaustive(goals, cons, opts)
	} else {
		rec, err = sys.Plan(goals, cons, opts)
	}
	if err != nil {
		return fail(err)
	}

	fmt.Printf("recommended configuration: %s  (cost: %d servers, %d candidate evaluations)\n",
		rec.Config, rec.Cost, rec.Evaluations)
	for x := 0; x < sys.Env().K(); x++ {
		fmt.Printf("  %-12s × %d\n", sys.Env().Type(x).Name, rec.Config.Replicas[x])
	}
	if len(rec.Trace) > 0 {
		fmt.Println("greedy trace:")
		for _, step := range rec.Trace {
			action := "accept"
			if step.AddedType >= 0 {
				action = fmt.Sprintf("add %s (%s)", sys.Env().Type(step.AddedType).Name, step.Reason)
			}
			fmt.Printf("  %-10s maxWait=%-10.5g unavail=%-10.3e → %s\n",
				step.Config, step.MaxWaiting, step.Unavailability, action)
		}
	}
	return assess(sys, rec.Config)
}

func loadSystem(path string) (*performa.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env, flows, err := wfjson.Decode(f)
	if err != nil {
		return nil, err
	}
	return performa.NewSystem(env, flows...)
}

func builtinWorkflows(name string, rate float64) ([]*spec.Workflow, error) {
	if flows := workload.Builtin(name, rate); flows != nil {
		return flows, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ep, order, loan, or mix)", name)
}

func buildSystem(name string, rate float64) (*performa.System, error) {
	flows, err := builtinWorkflows(name, rate)
	if err != nil {
		return nil, err
	}
	return performa.NewSystem(workload.PaperEnvironment(), flows...)
}

func assess(sys *performa.System, cfg performa.Configuration) int {
	as, err := sys.Assess(cfg)
	if err != nil {
		return fail(err)
	}
	env := sys.Env()
	fmt.Printf("\nassessment of %s\n", cfg)
	fmt.Printf("  %-12s %-8s %-10s %-12s %-12s\n", "server type", "replicas", "util", "wait [min]", "W^Y [min]")
	for x := 0; x < env.K(); x++ {
		wy := math.NaN()
		if as.Performability != nil {
			wy = as.Performability.Waiting[x]
		}
		fmt.Printf("  %-12s %-8d %-10.4f %-12.5g %-12.5g\n",
			env.Type(x).Name, cfg.Replicas[x],
			as.Performance.Utilization[x], as.Performance.Waiting[x], wy)
	}
	fmt.Printf("  bottleneck: %s; max sustainable throughput: %.3f workflows/min\n",
		env.Type(as.Performance.Bottleneck).Name, as.Performance.MaxWorkflowThroughput)
	fmt.Printf("  availability: %.9f  (downtime %s per year)\n",
		as.Availability.Availability, as.Availability.Downtime())
	if as.Performability != nil {
		fmt.Printf("  performability max waiting: %.5g min (degraded-state probability %.3e)\n",
			as.Performability.MaxWaiting(), as.Performability.DegradationShare)
	}
	return 0
}

// fail reports the error as a one-line diagnostic (prefixed with its
// taxonomy code when typed) and returns the exit code, letting run()'s
// deferred profile writers flush before the process exits.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "wfmsconfig:", wfmserr.Describe(err))
	return 1
}
