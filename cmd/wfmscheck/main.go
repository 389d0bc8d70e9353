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
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

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
		netDiff      = flag.Bool("net", false, "net-differential mode: collapsed analytic turnaround vs free-choice net oracle vs true-concurrency simulation")
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
			return runCorpus(os.Stdout, *corpusDir, *workers, opt, check, *verbose)
		}
		return run(os.Stdout, *systems, *seed, *workers, *out, opt, check, *noShrink, *mutate, *verbose)
	}()
	os.Exit(code)
}

type outcome struct {
	name          string // "seed N", or a corpus file's path
	sys           *crossval.System
	disagreements []crossval.Disagreement
	err           error
}

// checkFn is the per-system check: the full multi-route Check, or the
// deterministic CheckSolvers in -solver-diff mode.
type checkFn func(*crossval.System, crossval.Options) ([]crossval.Disagreement, error)

func run(w io.Writer, systems int, baseSeed uint64, workers int, out string, opt crossval.Options, check checkFn, noShrink, mutate, verbose bool) int {
	checked, failing, errored := checkAll(w, systems, workers, func(i int) (string, *crossval.System, error) {
		sys, err := crossval.Generate(baseSeed + uint64(i))
		return fmt.Sprintf("seed %d", baseSeed+uint64(i)), sys, err
	}, opt, check, verbose, func(res *outcome) {
		if out != "" {
			reportFailure(w, res, out, opt, check, noShrink)
		}
	})
	fmt.Fprintf(w, "wfmscheck: %d systems checked, %d disagreeing, %d errored (fault: %s)\n",
		checked, failing, errored, opt.Fault)
	if errored > 0 {
		return 1
	}
	if mutate {
		if failing == 0 {
			fmt.Fprintln(w, "wfmscheck: MUTATION NOT DETECTED — the harness missed an injected fault")
			return 1
		}
		fmt.Fprintf(w, "wfmscheck: mutation detected in %d/%d systems\n", failing, checked)
		return 0
	}
	if failing > 0 {
		return 1
	}
	return 0
}

// checkAll checks the n systems load returns on workers goroutines and
// prints each verdict, handing each disagreeing one to failed, in index
// order: what is printed does not depend on the number of workers or on
// which check finishes first. Errors go to stderr.
func checkAll(w io.Writer, n, workers int, load func(int) (string, *crossval.System, error), opt crossval.Options, check checkFn, verbose bool, failed func(*outcome)) (checked, failing, errored int) {
	results, next := make([]chan outcome, n), make(chan int)
	for i := range results {
		results[i] = make(chan outcome, 1)
	}
	go func() {
		for i := range n {
			next <- i
		}
		close(next)
	}()
	for range max(workers, 1) {
		go func() {
			for i := range next {
				res := outcome{}
				if res.name, res.sys, res.err = load(i); res.err == nil {
					res.disagreements, res.err = check(res.sys, opt)
				}
				results[i] <- res
			}
		}()
	}
	for _, r := range results {
		res := <-r
		checked++
		switch {
		case res.err != nil:
			errored++
			fmt.Fprintf(os.Stderr, "wfmscheck: %s: %v\n", res.name, res.err)
		case len(res.disagreements) > 0:
			failing++
			fmt.Fprintf(w, "%s: %d disagreement(s)\n", res.name, len(res.disagreements))
			for _, d := range res.disagreements {
				fmt.Fprintf(w, "  %s\n", d)
			}
			failed(&res)
		case verbose:
			fmt.Fprintf(w, "%s: ok\n", res.name)
		}
	}
	return checked, failing, errored
}

// reportFailure shrinks a failing system and writes the reproducer.
func reportFailure(w io.Writer, res *outcome, out string, opt crossval.Options, check checkFn, noShrink bool) {
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
		fmt.Fprintf(os.Stderr, "wfmscheck: writing corpus for %s: %v\n", res.name, err)
		return
	}
	fmt.Fprintf(w, "  reproducer: %s (%d workflow(s), %d server type(s))\n",
		path, len(sys.Flows), sys.Env.K())
}

// runCorpus checks every wfjson system under dir/systems/ through the
// differential harness: each file decodes to a system with the default
// corpus replica vector, a seed derived from its name, and the same
// multi-route check as generated systems. Any disagreement, decode
// failure, or silently empty directory exits non-zero.
func runCorpus(w io.Writer, dir string, workers int, opt crossval.Options, check checkFn, verbose bool) int {
	paths, err := filepath.Glob(filepath.Join(dir, "systems", "*.wfjson"))
	if err != nil {
		fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "wfmscheck: no wfjson systems under %s\n", filepath.Join(dir, "systems"))
		return 1
	}

	checked, failing, errored := checkAll(w, len(paths), workers, func(i int) (string, *crossval.System, error) {
		sys, err := loadCorpusSystem(paths[i])
		return paths[i], sys, err
	}, opt, check, verbose, func(*outcome) {})
	fmt.Fprintf(w, "wfmscheck: %d corpus systems checked, %d disagreeing, %d errored\n",
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
