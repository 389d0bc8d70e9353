// Command wfmsadvisor is the closed-loop configuration advisor of the
// paper's Section 7: given a JSON system specification, the running
// configuration, goals, and (optionally) an audit trail in JSON-lines
// form, it recalibrates the models from the trail and recommends whether
// to keep, grow, or shrink the deployment.
//
// Usage:
//
//	wfmsconfig -workload ep -rate 2 -export-spec > system.json
//	wfmsadvisor -spec system.json -config 2,2,3 -max-wait 0.005 -max-unavail 1e-5
//	wfmsadvisor -spec system.json -config 2,2,3 -trail audit.jsonl -max-unavail 1e-5 -allow-shrink
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"performa/internal/advisor"
	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
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
	var (
		specFile    = flag.String("spec", "", "JSON system specification (required; see internal/wfjson)")
		trailFile   = flag.String("trail", "", "JSON-lines audit trail to recalibrate from (optional)")
		configSpec  = flag.String("config", "", "running configuration, e.g. 2,2,3 (required)")
		maxWait     = flag.Float64("max-wait", 0, "waiting-time goal (0 = none)")
		maxUnavail  = flag.Float64("max-unavail", 0, "unavailability goal (0 = none)")
		allowShrink = flag.Bool("allow-shrink", false, "permit recommending fewer replicas when goals hold with headroom")
		smoothing   = flag.Float64("smoothing", 0.5, "Laplace smoothing for recalibrated branch probabilities")
		minObs      = flag.Int("min-observations", 50, "minimum completed instances before a trail is trusted")
		workers     = flag.Int("workers", 0, "planner worker-pool size (0 = all CPUs, 1 = sequential)")
	)
	flag.Parse()
	if *specFile == "" || *configSpec == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*specFile)
	if err != nil {
		fail(err)
	}
	env, flows, err := wfjson.Decode(f)
	f.Close()
	if err != nil {
		fail(err)
	}

	adv, err := advisor.New(env, flows, advisor.Options{
		Goals: config.Goals{MaxWaiting: *maxWait, MaxUnavailability: *maxUnavail},
		Planner: config.Options{
			Performability: performability.Options{Policy: performability.ExcludeDown},
			Workers:        *workers,
		},
		Calibration:          calibrate.Options{Smoothing: *smoothing},
		MinObservedInstances: *minObs,
		AllowShrink:          *allowShrink,
	})
	if err != nil {
		fail(err)
	}

	if *trailFile != "" {
		tf, err := os.Open(*trailFile)
		if err != nil {
			fail(err)
		}
		trail, err := audit.ReadJSONLines(tf)
		tf.Close()
		if err != nil {
			fail(err)
		}
		if err := adv.Observe(trail); err != nil {
			fail(fmt.Errorf("recalibration: %w", err))
		}
		fmt.Printf("recalibrated from %d audit records\n", trail.Len())
	}

	current, err := parseConfig(*configSpec, env.K())
	if err != nil {
		fail(err)
	}
	d, err := adv.Recommend(current)
	if err != nil {
		fail(err)
	}

	fmt.Printf("running %s — verdict: %s\n", current, d.Verdict)
	for _, r := range d.Reasons {
		fmt.Printf("  %s\n", r)
	}
	if d.Verdict != advisor.Keep {
		fmt.Printf("recommended: %s (%d servers)\n", d.Target, d.TargetCost)
		for x, dx := range d.Delta {
			if dx != 0 {
				fmt.Printf("  %+d %s\n", dx, env.Type(x).Name)
			}
		}
	}
	fmt.Printf("current metrics: max W^Y = %.5g, unavailability = %.3e\n",
		d.Current.Perf.MaxWaiting(), d.Current.Unavailability)
}

func parseConfig(s string, k int) (perf.Config, error) {
	parts := strings.Split(s, ",")
	if len(parts) != k {
		return perf.Config{}, fmt.Errorf("configuration %q has %d entries for %d server types", s, len(parts), k)
	}
	replicas := make([]int, k)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return perf.Config{}, fmt.Errorf("bad replication degree %q", p)
		}
		replicas[i] = v
	}
	return perf.Config{Replicas: replicas}, nil
}

// fail prints a one-line diagnostic, prefixed with the error's taxonomy
// code when typed, and exits non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "wfmsadvisor:", wfmserr.Describe(err))
	os.Exit(1)
}
