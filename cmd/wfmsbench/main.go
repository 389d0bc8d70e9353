// Command wfmsbench regenerates the experiment tables of EXPERIMENTS.md:
// every table and figure-equivalent of the paper's evaluation plus the
// ablation series.
//
// Usage:
//
//	wfmsbench -exp all
//	wfmsbench -exp e1,e6
//	wfmsbench -exp e7 -seed 7 -horizon 40000
//	wfmsbench -exp e5,e6 -cpuprofile planners.pprof
//
// -h lists the experiment ids.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"performa/internal/experiments"
)

// order is the experiment ids in the order -exp all prints them.
var order = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e13", "e20",
	"a1", "a3", "a4", "a7"}

func main() {
	os.Exit(run())
}

// run holds main's body so the pprof defers flush before the process
// exits (os.Exit skips deferred calls).
func run() int {
	var (
		exp            = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(order, ", ")+"), or all")
		seed           = flag.Uint64("seed", 42, "seed for simulation-backed experiments")
		horizon        = flag.Float64("horizon", 20000, "simulation horizon in model minutes (e7)")
		corpusDir      = flag.String("corpus-dir", "corpus", "imported-workflow corpus directory for E20")
		netdiffJSON    = flag.String("netdiff-json", "", "run only the E20 collapse-bias bench and write its rows as JSON to this file")
		netdiffReduced = flag.Bool("netdiff-reduced", false, "with -netdiff-json: the reduced grid (CI smoke sizes)")
		cpuprofile     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile     = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfmsbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wfmsbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wfmsbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is representative
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wfmsbench:", err)
			}
		}()
	}

	if *netdiffJSON != "" {
		return runNetDiffBench(*netdiffJSON, *corpusDir, *netdiffReduced)
	}

	runners := map[string]func() (*experiments.Table, error){
		"e1": experiments.E1Availability,
		"e2": experiments.E2EPWorkflow,
		"e3": experiments.E3Throughput,
		"e4": experiments.E4WaitingCurve,
		"e5": experiments.E5Performability,
		"e6": experiments.E6Greedy,
		"e7": func() (*experiments.Table, error) {
			return experiments.E7Validation(experiments.E7Options{Seed: *seed, Horizon: *horizon})
		},
		"e8": func() (*experiments.Table, error) {
			return experiments.E8Calibration(experiments.E8Options{Seed: *seed})
		},
		"e9":  experiments.E9Distribution,
		"e13": func() (*experiments.Table, error) { return experiments.E13Discovery(*seed) },
		"e20": func() (*experiments.Table, error) {
			_, t, err := experiments.NetDiffBench(*corpusDir, false)
			return t, err
		},
		"a1": experiments.AblationSeries,
		"a3": experiments.AblationRepairDiscipline,
		"a4": func() (*experiments.Table, error) { return experiments.AblationDispatch(*seed) },
		"a7": func() (*experiments.Table, error) { return experiments.AblationPooling(*seed) },
	}
	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "wfmsbench: unknown experiment %q (known: %s, all)\n", id, strings.Join(order, ", "))
				return 2
			}
			ids = append(ids, id)
		}
	}

	for i, id := range ids {
		tbl, err := runners[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfmsbench: %s: %v\n", id, err)
			return 1
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(tbl.Format())
	}
	return 0
}

// runNetDiffBench runs the E20 collapse-bias bench, prints the table,
// and writes the raw rows as JSON (BENCH_netdiff.json).
func runNetDiffBench(path, dir string, reduced bool) int {
	rows, tbl, err := experiments.NetDiffBench(dir, reduced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfmsbench:", err)
		return 1
	}
	fmt.Print(tbl.Format())
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfmsbench:", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wfmsbench:", err)
		return 1
	}
	fmt.Printf("wrote %d rows to %s\n", len(rows), path)
	return 0
}
