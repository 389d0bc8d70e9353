package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"performa/internal/server"
)

// result is everything one run of one workload measured.
type result struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Clients  int    `json:"clients"`
	// OracleS is the time the checker spent computing expected answers
	// by direct library calls; it is not part of setup_s.
	OracleS float64 `json:"oracle_s"`
	// SetupS has one entry per repetition of the set-up.
	SetupS      []float64 `json:"setup_s"`
	OpsPerRound int       `json:"ops_per_round"`
	// RoundS, RoundP50MS, RoundP90MS and RoundRSSMB have one entry per
	// timed round as the clock read it, so the spread behind each metric
	// is on file.
	RoundS         []float64 `json:"round_s"`
	RoundP50MS     []float64 `json:"round_op_p50_ms"`
	RoundP90MS     []float64 `json:"round_op_p90_ms"`
	RoundRSSMB     []float64 `json:"round_peak_rss_mb,omitempty"`
	RoundQuartiles quartiles `json:"round_s_quartiles"`
	// OpMedianMS has one entry per request of the round: its median
	// latency over the rounds. OpSamples is the number of latencies
	// behind it.
	OpMedianMS     []float64 `json:"op_median_ms"`
	OpSamples      int       `json:"op_samples"`
	EventsPerRound float64   `json:"events_per_round,omitempty"`
	// SetupGranted and Granted are the share of the processor time the
	// machine asked for that the hypervisor gave it, during the set-up
	// repetitions and during the rounds; the times in EndToEnd are
	// multiplied by it (see grantedSince).
	SetupGranted float64 `json:"setup_granted_share"`
	Granted      float64 `json:"granted_share,omitempty"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	FirstError   string  `json:"first_error,omitempty"`
	// EndToEnd is set by an untraced run, PerLayer by a traced one. A
	// metric that is undefined on the workload is absent from EndToEnd.
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Flags lists the acceptance thresholds a traced run missed.
	Flags []string `json:"flags,omitempty"`
	// TraceFile is where the traced run wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`

	opsMS [][]float64 // by request number, one latency per round
}

// A traced run that misses one of these is flagged in its output: the
// replayed layers must account for a cold-corpus round, and recording
// spans must not change what is measured.
const (
	minColdCoverage  = 0.9
	maxOverheadShare = 0.05
)

// runWorkload runs one workload once, untraced for the end-to-end
// metrics or traced for the per-layer ones.
func runWorkload(name string, p params, traced bool) (*result, error) {
	w, err := newWorkload(name, p)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Traced: traced, Clients: clientCount(w)}

	began := time.Now()
	if err := w.oracle(); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", name, err)
	}
	res.OracleS = time.Since(began).Seconds()
	// The oracle is the checker's memory, not the program's.
	debug.FreeOSMemory()

	// The set-up is repeated until a twentieth of the window has gone
	// into it and the median repetition reported: a set-up of a few
	// milliseconds is otherwise timer noise, and one that builds every
	// corpus model runs once.
	defer w.teardown()
	host := readHostCPU()
	for spent := time.Duration(0); len(res.SetupS) == 0 || spent < p.window/20; {
		if len(res.SetupS) > 0 {
			w.teardown()
		}
		began := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		took := time.Since(began)
		spent += took
		res.SetupS = append(res.SetupS, took.Seconds())
	}
	res.SetupGranted = host.grantedSince()

	if traced {
		err = runTraced(w, p, res)
	} else {
		err = runTimed(w, p, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// addRound folds one round's observations into the result.
func (res *result) addRound(rec *roundRec, took time.Duration) {
	res.OpsPerRound = rec.attempted
	res.OpSamples += rec.attempted
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	if res.FirstError == "" && rec.firstErr != nil {
		res.FirstError = rec.firstErr.Error()
	}
	for i, ms := range rec.opsMS {
		if i == len(res.opsMS) {
			res.opsMS = append(res.opsMS, nil)
		}
		res.opsMS[i] = append(res.opsMS[i], ms)
	}
	res.RoundS = append(res.RoundS, took.Seconds())
	res.RoundP50MS = append(res.RoundP50MS, quantile(rec.opsMS, 0.5))
	res.RoundP90MS = append(res.RoundP90MS, quantile(rec.opsMS, 0.9))
	res.EventsPerRound = rec.counts["events"]
}

// runTimed repeats rounds for the window: at least minRounds, and then
// for as long as another round of median length still fits.
func runTimed(w workload, p params, res *result) error {
	began := time.Now()
	host := readHostCPU()
	for {
		rec := newRoundRec(nil, 0)
		restartPeakRSS()
		start := time.Now()
		if err := w.round(rec); err != nil {
			return err
		}
		res.addRound(rec, time.Since(start))
		res.RoundRSSMB = append(res.RoundRSSMB, peakRSSMB())
		if len(res.RoundS) >= p.minRounds &&
			time.Since(began)+time.Duration(median(res.RoundS)*float64(time.Second)) > p.window {
			break
		}
	}
	res.Granted = host.grantedSince()
	res.RoundQuartiles = quartilesOf(res.RoundS)
	for _, ms := range res.opsMS {
		res.OpMedianMS = append(res.OpMedianMS, median(ms))
	}
	roundS := res.Granted * median(res.RoundS)
	res.EndToEnd = map[string]float64{
		"setup_s":      res.SetupGranted * median(res.SetupS),
		"round_s":      roundS,
		"op_p50_ms":    res.Granted * quantile(res.OpMedianMS, 0.5),
		"op_p90_ms":    res.Granted * quantile(res.OpMedianMS, 0.9),
		"peak_rss_mb":  median(res.RoundRSSMB),
		"failed_share": float64(res.Failed) / float64(res.Attempted),
	}
	if res.EventsPerRound > 0 {
		res.EndToEnd["events_per_s"] = res.EventsPerRound / roundS
	}
	return nil
}

// runTraced runs pairs of rounds for as long as another pair fits half
// the window, then replays one round layer by layer and derives the
// per-layer metrics from the spans and counts.
//
// The first round of a pair records a span for every even-numbered
// operation, the second for every odd-numbered one, so each operation is
// timed once with a span and once without, a round apart. The host's
// speed wanders between rounds, and whole traced rounds set against whole
// untraced ones would measure that. Here the even operations' summed
// latency with spans over theirs without is (1 + overhead) × the speed of
// the first round over the second's, the odd operations' the same with
// the rounds swapped, and the geometric mean of the two is 1 + overhead.
func runTraced(w workload, p params, res *result) error {
	workers, err := servedWorkers()
	if err != nil {
		return err
	}
	tr := newTracer()
	var tracedMS, plainMS [2]float64 // by the parity of the operations
	var pairS []float64
	var last *roundRec
	began := time.Now()
	for len(pairS) == 0 || time.Since(began)+time.Duration(median(pairS)*float64(time.Second)) <= p.window/2 {
		pairStart := time.Now()
		for parity := 0; parity < 2; parity++ {
			last = newRoundRec(tr, parity)
			start := time.Now()
			if err := w.round(last); err != nil {
				return err
			}
			res.addRound(last, time.Since(start))
			tracedMS[parity] += last.tracedMS
			plainMS[1-parity] += last.plainMS
		}
		pairS = append(pairS, time.Since(pairStart).Seconds())
	}
	res.RoundQuartiles = quartilesOf(res.RoundS)

	rr := &replayRun{tr: tr, counts: make(map[string]float64), workers: workers}
	if err := w.replay(rr); err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	m := make(map[string]float64, len(perLayer))
	for _, def := range perLayer {
		switch {
		case strings.HasSuffix(def.Name, "_ms"):
			m[def.Name] = tr.sumMS(strings.TrimSuffix(def.Name, "_ms"))
		default:
			m[def.Name] = rr.counts[def.Name] + last.counts[def.Name]
		}
	}
	// Build's own time is what is left after the two solves it runs on
	// the chain it returns, which the probe repeats on that chain right
	// after the replay: a difference of times taken a moment apart, so on
	// a host whose speed wanders it is noisy and can dip below zero on a
	// system where the solves are nearly all of the build.
	m["spec.build_self_ms"] = m["spec.build_ms"] - m["ctmc.first_passage_ms"] - m["ctmc.expected_visits_ms"]
	if lookups := m["performability.state_hits"] + m["performability.state_solves"]; lookups > 0 {
		m["performability.hit_ratio"] = m["performability.state_hits"] / lookups
	}
	var opsMS float64
	for _, ms := range last.opsMS {
		opsMS += ms
	}
	layersMS, restMS := tr.layerSelfMS()
	// What the client waited for and no replayed layer accounts for:
	// routing, admission, cache lookup, encoding, logging, loopback. It
	// goes slightly negative when a layer replays slower than it ran
	// inside the server.
	m["server.self_ms"] = opsMS - layersMS
	m["server.controller_ms"] = last.counts["server.controller_ms"]
	if m["server.controller_ms"] > 0 {
		m["server.poll_gap_ms"] = opsMS - m["server.controller_ms"]
	}
	m["trace.coverage"] = (layersMS + restMS) / (1e3 * median(res.RoundS))
	m["trace.overhead_share"] = math.Sqrt(tracedMS[0]/plainMS[0]*tracedMS[1]/plainMS[1]) - 1
	res.PerLayer = m
	if res.Workload == "cold-corpus" && m["trace.coverage"] < minColdCoverage {
		res.Flags = append(res.Flags, fmt.Sprintf("trace.coverage %.3f is below %.2f", m["trace.coverage"], minColdCoverage))
	}
	if m["trace.overhead_share"] >= maxOverheadShare {
		res.Flags = append(res.Flags, fmt.Sprintf("trace.overhead_share %.3f is not below %.2f", m["trace.overhead_share"], maxOverheadShare))
	}

	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(p.outDir, "trace-"+res.Workload+".json")
	return tr.write(res.TraceFile)
}

// servedWorkers asks a default server how wide a pool it gives one
// admitted request.
func servedWorkers() (int, error) {
	srv, err := startServer(server.Options{})
	if err != nil {
		return 0, err
	}
	call := newCaller(1)
	defer call.close()
	raw, err := call.get(srv.url + "/v1/stats")
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		return 0, err
	}
	return stats.Admission.PerRequest, nil
}
