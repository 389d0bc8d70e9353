// Command wfmsreplay streams a recorded audit trail into a running
// wfmsd instance through POST /v1/events, closing the paper's online
// calibration loop from the command line: the daemon scores the
// replayed behavior against the warm model's parameters and rebuilds
// the model when the drift threshold is crossed.
//
// The target system is addressed by its fingerprint (as printed by
// /v1/assess) or by its JSON specification, from which the fingerprint
// is derived locally; -register additionally warms the daemon's model
// before the replay starts, which a fresh daemon needs before it
// accepts events.
//
// Usage:
//
//	wfmsreplay -addr http://localhost:8080 -fingerprint 5ac1... -trail run.jsonl
//	wfmsreplay -addr http://localhost:8080 -spec sys.json -register -config 3,3,4 -trail - < run.jsonl
//	wfmsreplay -addr http://localhost:8080 -spec sys.json -trail run.jsonl -speedup 60
//
// With -speedup S the trail is paced at S trail time-units per
// wall-clock second; 0 replays as fast as the daemon accepts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"performa/internal/audit"
	"performa/internal/perf"
	"performa/internal/replay"
	"performa/internal/server"
	"performa/internal/wfjson"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "wfmsd base URL")
		trailPath   = flag.String("trail", "", "audit trail in JSON lines (\"-\" for stdin)")
		fingerprint = flag.String("fingerprint", "", "target system fingerprint (as returned by /v1/assess)")
		specFile    = flag.String("spec", "", "JSON system specification to derive the fingerprint from (alternative to -fingerprint)")
		register    = flag.Bool("register", false, "warm the daemon's model via /v1/assess before replaying (requires -spec)")
		configSpec  = flag.String("config", "", "configuration for -register, e.g. 3,3,4 (default: one replica per type)")
		batch       = flag.Int("batch", 500, "records per POST /v1/events batch")
		speedup     = flag.Float64("speedup", 0, "trail time-units replayed per wall-clock second (0 = full speed)")
	)
	flag.Parse()
	if *trailPath == "" {
		fail(fmt.Errorf("no -trail given"))
	}

	recs, err := readTrail(*trailPath)
	if err != nil {
		fail(err)
	}

	fp := *fingerprint
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			fail(err)
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		specFP, err := wfjson.Fingerprint(env, flows)
		if err != nil {
			fail(err)
		}
		if fp != "" && fp != specFP {
			fail(fmt.Errorf("-fingerprint %s does not match -spec fingerprint %s", fp, specFP))
		}
		fp = specFP
		if *register {
			doc, err := wfjson.ToDocument(env, flows)
			if err != nil {
				fail(err)
			}
			cfg := make([]int, env.K())
			for i := range cfg {
				cfg[i] = 1
			}
			if *configSpec != "" {
				c, err := perf.ParseConfig(*configSpec, env.K())
				if err != nil {
					fail(err)
				}
				cfg = c.Replicas
			}
			if err := warmModel(*addr, doc, cfg, fp); err != nil {
				fail(err)
			}
			fmt.Printf("registered system %s at config %v\n", fp, cfg)
		}
	}
	if fp == "" {
		fail(fmt.Errorf("no target system: give -fingerprint or -spec"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sum, err := replay.Replay(ctx, recs, replay.Options{
		BaseURL:     *addr,
		Fingerprint: fp,
		BatchSize:   *batch,
		SpeedUp:     *speedup,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if sum != nil {
		fmt.Printf("replayed %d records in %d batches to %s\n", sum.Records, sum.Batches, fp)
		fmt.Printf("  drift: %s (generation %d, %d invalidations, drifted=%v)\n",
			sum.Final.Drift.String(), sum.Generation, sum.Invalidations, sum.Drifted)
	}
	if err != nil {
		fail(err)
	}
}

func readTrail(path string) ([]audit.Record, error) {
	if path == "-" {
		return audit.ReadRecords(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return audit.ReadRecords(f)
}

// warmModel posts the system to /v1/assess so the daemon holds a warm
// model (the drift baseline) before events stream in. The goal is
// vacuous (unavailability ≤ 1): registration only needs the model
// built, not a meaningful verdict.
func warmModel(addr string, doc *wfjson.Document, cfg []int, fp string) error {
	body, err := json.Marshal(server.AssessRequest{
		System: *doc,
		Config: cfg,
		Goals:  server.GoalsJSON{MaxUnavailability: 0.999999},
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(addr+"/v1/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("registering system: %s: %s", resp.Status, raw)
	}
	var out server.AssessResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return err
	}
	if out.Fingerprint != fp {
		return fmt.Errorf("daemon fingerprinted the system as %s, expected %s", out.Fingerprint, fp)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wfmsreplay:", err)
	os.Exit(1)
}
