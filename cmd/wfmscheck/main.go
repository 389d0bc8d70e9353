// Command wfmscheck is the differential validation harness: it generates
// randomized workflow systems and cross-checks the analytic stack
// (perf + avail + performability), the discrete-event simulator, and
// textbook closed-form oracles against each other. Disagreements beyond
// a CI-width-aware tolerance are shrunk to minimal reproducers and
// written as replayable corpus files.
//
// Usage:
//
//	wfmscheck -systems 200 -seed 1 -workers 8 -out corpus/
//	wfmscheck -systems 25 -mutate            # self-test: must detect the fault
//	wfmscheck -replay corpus/crossval-seed7.json
//	wfmscheck -corpus corpus                 # check the imported-workflow corpus
//	wfmscheck -net -systems 50               # net oracle vs true-concurrency sim vs collapse
//	wfmscheck -net -mutate -fault collapse-bias
//
// Exit status: 0 when every system agrees (or, with -mutate, when the
// injected fault was detected in at least one system), 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"performa/internal/crossval"
	"performa/internal/wfcommons"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
)

func main() {
	var (
		systems      = flag.Int("systems", 50, "number of random systems to generate and check")
		seed         = flag.Uint64("seed", 1, "base generator seed; system i uses seed+i")
		workers      = flag.Int("workers", runtime.NumCPU(), "parallel checker goroutines")
		out          = flag.String("out", "", "directory for shrunk reproducer corpus files (empty: don't write)")
		replications = flag.Int("replications", 0, "performance-route simulation replications (default 5)")
		mutate       = flag.Bool("mutate", false, "mutation self-test: inject a fault into the analytic route and require the harness to detect it")
		faultName    = flag.String("fault", "service-moment", "fault injected by -mutate: arrival-rate, service-moment, drop-renormalisation, or collapse-bias (the last needs -net)")
		replay       = flag.String("replay", "", "re-check a corpus file instead of generating systems")
		corpusDir    = flag.String("corpus", "", "check every wfjson system under this directory's systems/ instead of generating")
		solverDiff   = flag.Bool("solver-diff", false, "solver-differential mode: cross-check dense vs sparse steady-state solvers only (deterministic, no simulation)")
		netDiff      = flag.Bool("net", false, "net-differential mode: free-choice net oracle vs true-concurrency simulation vs collapsed analytic turnaround")
		noShrink     = flag.Bool("no-shrink", false, "skip shrinking failing systems")
		verbose      = flag.Bool("v", false, "log every system, not just failures")
	)
	flag.Parse()

	opt := crossval.Options{Replications: *replications}
	check := crossval.Check
	if *solverDiff && *netDiff {
		fatal(fmt.Errorf("-solver-diff and -net are mutually exclusive modes"))
	}
	if *solverDiff {
		if *mutate {
			fatal(fmt.Errorf("-solver-diff runs the analytic solvers against each other and cannot detect -mutate faults"))
		}
		check = crossval.CheckSolvers
	}
	if *netDiff {
		check = crossval.CheckNet
	}
	if *mutate {
		fault, err := crossval.FaultByName(*faultName)
		if err != nil {
			fatal(err)
		}
		if fault == crossval.FaultNone {
			fatal(fmt.Errorf("-mutate needs a real fault, got %q", *faultName))
		}
		if fault == crossval.FaultCollapseBias && !*netDiff {
			fatal(fmt.Errorf("collapse-bias perturbs the shared build path, so the legacy routes agree with themselves and are blind to it by construction — add -net"))
		}
		if *netDiff && fault != crossval.FaultCollapseBias {
			fatal(fmt.Errorf("-net compares turnaround oracles only and cannot detect %q; use -fault collapse-bias", *faultName))
		}
		opt.Fault = fault
	}

	code := func() (code int) {
		// Residual panics must cost a one-line diagnostic and a non-zero
		// exit, never a raw Go trace.
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(os.Stderr, "wfmscheck: internal error: %v\n", p)
				code = 2
			}
		}()
		if *replay != "" {
			return replayFile(*replay, opt, check)
		}
		if *corpusDir != "" {
			return runCorpus(*corpusDir, *workers, opt, check, *verbose)
		}
		return run(*systems, *seed, *workers, *out, opt, check, *noShrink, *mutate, *verbose)
	}()
	os.Exit(code)
}

type outcome struct {
	seed          uint64
	sys           *crossval.System
	disagreements []crossval.Disagreement
	err           error
}

// checkFn is the per-system check: the full multi-route Check, or the
// deterministic CheckSolvers in -solver-diff mode.
type checkFn func(*crossval.System, crossval.Options) ([]crossval.Disagreement, error)

func run(systems int, baseSeed uint64, workers int, out string, opt crossval.Options, check checkFn, noShrink, mutate, verbose bool) int {
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan uint64)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				sys, err := crossval.Generate(s)
				if err != nil {
					results <- outcome{seed: s, err: err}
					continue
				}
				ds, err := check(sys, opt)
				results <- outcome{seed: s, sys: sys, disagreements: ds, err: err}
			}
		}()
	}
	go func() {
		for i := 0; i < systems; i++ {
			jobs <- baseSeed + uint64(i)
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	checked, failing, errored := 0, 0, 0
	var firstFailing *outcome
	for res := range results {
		checked++
		switch {
		case res.err != nil:
			errored++
			fmt.Fprintf(os.Stderr, "wfmscheck: seed %d: %v\n", res.seed, res.err)
		case len(res.disagreements) > 0:
			failing++
			r := res
			if firstFailing == nil {
				firstFailing = &r
			}
			fmt.Printf("seed %d: %d disagreement(s)\n", res.seed, len(res.disagreements))
			for _, d := range res.disagreements {
				fmt.Printf("  %s\n", d)
			}
			if out != "" {
				reportFailure(&r, out, opt, check, noShrink)
			}
		case verbose:
			fmt.Printf("seed %d: ok\n", res.seed)
		}
	}

	fmt.Printf("wfmscheck: %d systems checked, %d disagreeing, %d errored (fault: %s)\n",
		checked, failing, errored, opt.Fault)
	if errored > 0 {
		return 1
	}
	if mutate {
		if failing == 0 {
			fmt.Println("wfmscheck: MUTATION NOT DETECTED — the harness missed an injected fault")
			return 1
		}
		fmt.Printf("wfmscheck: mutation detected in %d/%d systems\n", failing, checked)
		return 0
	}
	if failing > 0 {
		return 1
	}
	return 0
}

// reportFailure shrinks a failing system and writes the reproducer.
func reportFailure(res *outcome, out string, opt crossval.Options, check checkFn, noShrink bool) {
	sys := res.sys
	if !noShrink {
		sys = crossval.Shrink(sys, func(c *crossval.System) bool {
			ds, err := check(c, opt)
			return err == nil && len(ds) > 0
		})
	}
	ds, err := check(sys, opt)
	if err != nil {
		ds = res.disagreements
		sys = res.sys
	}
	path, err := crossval.WriteCorpus(out, sys, opt.Fault, ds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfmscheck: writing corpus for seed %d: %v\n", res.seed, err)
		return
	}
	fmt.Printf("  reproducer: %s (%d workflow(s), %d server type(s))\n",
		path, len(sys.Flows), sys.Env.K())
}

// runCorpus checks every wfjson system under dir/systems/ through the
// differential harness: each file decodes to a system with the default
// corpus replica vector, a seed derived from its name, and the same
// multi-route check as generated systems. Any disagreement, decode
// failure, or silently empty directory exits non-zero.
func runCorpus(dir string, workers int, opt crossval.Options, check checkFn, verbose bool) int {
	paths, err := filepath.Glob(filepath.Join(dir, "systems", "*.wfjson"))
	if err != nil {
		fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "wfmscheck: no wfjson systems under %s\n", filepath.Join(dir, "systems"))
		return 1
	}
	if workers < 1 {
		workers = 1
	}

	type corpusOutcome struct {
		path          string
		disagreements []crossval.Disagreement
		err           error
	}
	jobs := make(chan string)
	results := make(chan corpusOutcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				sys, err := loadCorpusSystem(p)
				if err != nil {
					results <- corpusOutcome{path: p, err: err}
					continue
				}
				ds, err := check(sys, opt)
				results <- corpusOutcome{path: p, disagreements: ds, err: err}
			}
		}()
	}
	go func() {
		for _, p := range paths {
			jobs <- p
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	checked, failing, errored := 0, 0, 0
	for res := range results {
		checked++
		switch {
		case res.err != nil:
			errored++
			fmt.Fprintf(os.Stderr, "wfmscheck: %s: %v\n", res.path, res.err)
		case len(res.disagreements) > 0:
			failing++
			fmt.Printf("%s: %d disagreement(s)\n", res.path, len(res.disagreements))
			for _, d := range res.disagreements {
				fmt.Printf("  %s\n", d)
			}
		case verbose:
			fmt.Printf("%s: ok\n", res.path)
		}
	}
	fmt.Printf("wfmscheck: %d corpus systems checked, %d disagreeing, %d errored\n",
		checked, failing, errored)
	if failing > 0 || errored > 0 {
		return 1
	}
	return 0
}

// loadCorpusSystem decodes one corpus wfjson file into a checkable
// system: the corpus default replica vector and a name-derived seed.
func loadCorpusSystem(path string) (*crossval.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	env, flows, err := wfjson.Decode(f)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(filepath.Base(path)))
	return &crossval.System{
		Seed:     h.Sum64(),
		Env:      env,
		Flows:    flows,
		Replicas: wfcommons.Replicas(env),
	}, nil
}

// replayFile re-checks a corpus reproducer under its recorded fault.
func replayFile(path string, opt crossval.Options, check checkFn) int {
	sys, cf, err := crossval.ReadCorpus(path)
	if err != nil {
		fatal(err)
	}
	fault, err := crossval.FaultByName(cf.Fault)
	if err != nil {
		fatal(err)
	}
	opt.Fault = fault
	ds, err := check(sys, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replay %s (seed %d, fault %s): %d disagreement(s), %d recorded\n",
		path, cf.Seed, cf.Fault, len(ds), len(cf.Disagreements))
	for _, d := range ds {
		fmt.Printf("  %s\n", d)
	}
	if len(ds) > 0 {
		return 1
	}
	return 0
}

// fatal prints a one-line diagnostic, prefixed with the error's taxonomy
// code when typed, and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfmscheck:", wfmserr.Describe(err))
	os.Exit(1)
}
