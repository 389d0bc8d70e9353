// Command bench is the repository's benchmark: five workloads against an
// in-process wfmsd over loopback HTTP, end-to-end metrics measured with
// tracing off, and a traced run that replays every request through the
// layers' public functions for the per-layer metrics. BENCHMARK.json at
// the repository root names the workloads, the metrics, and the bounds;
// README.md in this directory explains them.
//
// Usage (from the repository root):
//
//	go run ./bench                                  every workload, timed then traced
//	go run ./bench -workload warm-whatif -seed 7    one workload, both modes
//	go run ./bench -workload cold-corpus -trace 0   one mode; last line is one JSON object
//	go run ./bench -trace 0 -out a.json             append the runs to a.json
//	go run ./bench -compare a.json b.json           verdict per workload × metric
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// minRounds is the fewest rounds a timed run measures, however long a
// round is: every request's median is over at least 5 latencies, and the
// 22-system workload has 110 behind its percentiles.
const minRounds = 5

// The benchmark runs from the repository root.
const (
	corpusDir = "corpus"
	specFile  = "BENCHMARK.json"
	outDir    = "bench/out"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (default: all five)")
		seed     = fs.Uint64("seed", 1, "seed for request order, variant vectors, and the simulated trail")
		seconds  = fs.Int("seconds", 20, "timed window per run, in seconds")
		trace    = fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		out      = fs.String("out", "", "results file, appended to if it exists (default bench/out/results.json when running both modes)")
		compare  = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args())
	}
	if fs.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds < 1 {
		fs.Usage()
		return 2
	}

	p := params{
		corpusDir: corpusDir,
		outDir:    outDir,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		minRounds: minRounds,
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	file := newResultsFile(p)
	failed := false
	for _, name := range names {
		for _, traced := range modes {
			res, err := runWorkload(name, p, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printResult(os.Stdout, res)
			file.Runs = append(file.Runs, res)
			failed = failed || res.Failed > 0
		}
	}
	if *out == "" && len(modes) == 2 {
		*out = filepath.Join(p.outDir, "results.json")
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println("results:", *out)
	}
	// The driver's line: one workload in one mode, last on standard
	// output.
	if len(file.Runs) == 1 {
		fmt.Println(driverLine(file.Runs[0]))
	}
	if failed {
		return 1
	}
	return 0
}

func runCompare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResultsFile(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResultsFile(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compareFiles(os.Stdout, spec, a, b) {
		return 1
	}
	return 0
}
