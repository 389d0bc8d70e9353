// Command wfmsadvisor is the one-shot form of the paper's Section 7
// closed loop: given a JSON system specification, the running
// configuration, goals, and (optionally) an audit trail in JSON-lines
// form, it recalibrates the system from the trail and re-plans from the
// running configuration exactly as wfmsd's reconfiguration controller
// does — assess what is deployed, then warm-start the greedy search
// there — and prints whether that keeps, grows, or shrinks the
// deployment.
//
// Usage:
//
//	wfmsconfig -workload ep -rate 2 -export-spec > system.json
//	wfmsadvisor -spec system.json -config 2,2,3 -max-wait 0.005 -max-unavail 1e-5
//	wfmsadvisor -spec system.json -config 2,2,3 -trail audit.jsonl -max-unavail 1e-5 -allow-shrink
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"performa"
	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/stream"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
)

func main() {
	// Residual panics must cost a one-line diagnostic and a non-zero
	// exit, never a raw Go trace.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "wfmsadvisor: internal error: %v\n", p)
			os.Exit(2)
		}
	}()
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		// One-line diagnostic, prefixed with the error's taxonomy code
		// when typed.
		fmt.Fprintln(os.Stderr, "wfmsadvisor:", wfmserr.Describe(err))
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set already complained about.
var errUsage = errors.New("usage")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wfmsadvisor", flag.ContinueOnError)
	var (
		specFile    = fs.String("spec", "", "JSON system specification (required; see internal/wfjson)")
		trailFile   = fs.String("trail", "", "JSON-lines audit trail to recalibrate from (optional)")
		configSpec  = fs.String("config", "", "running configuration, e.g. 2,2,3 (required)")
		maxWait     = fs.Float64("max-wait", 0, "waiting-time goal (0 = none)")
		maxUnavail  = fs.Float64("max-unavail", 0, "unavailability goal (0 = none)")
		allowShrink = fs.Bool("allow-shrink", false, "permit recommending fewer replicas when goals hold with headroom")
		smoothing   = fs.Float64("smoothing", 0.5, "Laplace smoothing for recalibrated branch probabilities")
		minObs      = fs.Int("min-observations", 50, "minimum completed instances before a trail is trusted")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}
	if *specFile == "" || *configSpec == "" {
		fs.Usage()
		return errUsage
	}

	f, err := os.Open(*specFile)
	if err != nil {
		return err
	}
	env, flows, err := wfjson.Decode(f)
	f.Close()
	if err != nil {
		return err
	}
	current, err := perf.ParseConfig(*configSpec, env.K())
	if err != nil {
		return err
	}

	if *trailFile != "" {
		tf, err := os.Open(*trailFile)
		if err != nil {
			return err
		}
		trail, err := audit.ReadJSONLines(tf)
		tf.Close()
		if err != nil {
			return err
		}
		est, err := stream.FromTrail(trail)
		if err == nil {
			err = est.RequireCompleted(*minObs)
		}
		if err == nil {
			env, err = est.ApplySystem(env, flows, calibrate.Options{Smoothing: *smoothing})
		}
		if err != nil {
			return fmt.Errorf("recalibration: %w", err)
		}
		fmt.Fprintf(out, "recalibrated from %d audit records\n", trail.Len())
	}

	sys, err := performa.NewSystem(env, flows...)
	if err != nil {
		return err
	}
	goals := config.Goals{MaxWaiting: *maxWait, MaxUnavailability: *maxUnavail}
	opts := config.Options{Performability: performability.Options{Policy: performability.ExcludeDown}}
	ctx := context.Background()
	as, err := config.AssessContext(ctx, sys.Analysis(), current, goals, opts)
	if err != nil {
		return err
	}
	// A running system is grown, not shrunk, unless asked: the deployed
	// replicas are the search's lower bound as well as its start.
	cons := config.Constraints{StartFrom: current.Replicas}
	if !*allowShrink {
		cons.MinReplicas = current.Replicas
	}
	rec, err := config.GreedyContext(ctx, sys.Analysis(), goals, cons, opts)
	if err != nil {
		return fmt.Errorf("goals violated and no feasible configuration found: %w", err)
	}

	verdict := "keep"
	switch cost := current.TotalServers(); {
	case rec.Cost < cost:
		verdict = "shrink"
	case rec.Cost > cost || !as.Feasible():
		verdict = "grow"
	}
	fmt.Fprintf(out, "running %s — verdict: %s\n", current, verdict)
	if !as.PerfOK {
		fmt.Fprintf(out, "  waiting-time goal violated: max W^Y = %.4g\n", as.Perf.MaxWaiting())
	}
	if !as.AvailOK {
		fmt.Fprintf(out, "  availability goal violated: unavailability = %.3e\n", as.Unavailability)
	}
	switch {
	case verdict == "shrink":
		fmt.Fprintf(out, "  goals hold at %d servers instead of %d\n", rec.Cost, current.TotalServers())
	case as.Feasible():
		fmt.Fprintln(out, "  all goals met")
	}
	if verdict != "keep" {
		fmt.Fprintf(out, "recommended: %s (%d servers)\n", rec.Config, rec.Cost)
		for x, y := range rec.Config.Replicas {
			if dx := y - current.Replicas[x]; dx != 0 {
				fmt.Fprintf(out, "  %+d %s\n", dx, env.Type(x).Name)
			}
		}
	}
	fmt.Fprintf(out, "current metrics: max W^Y = %.5g, unavailability = %.3e\n",
		as.Perf.MaxWaiting(), as.Unavailability)
	return nil
}
