package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark emits. The lists below are
// the code's half of the contract in BENCHMARK.json; bench_test.go fails
// when the two disagree in either direction.
type metricDef struct {
	Name string
	Unit string
	// ReportOnly marks an end-to-end metric that is printed and written
	// to the results file but kept out of BENCHMARK.json, because the
	// driver bounds every listed metric as a share of its median on
	// every workload and these are zero or undefined on some.
	ReportOnly string
	// Better and Bound are the direction and regression bound of a
	// report-only metric; the others take theirs from BENCHMARK.json.
	Better string
	Bound  float64
}

// workloadNames is the fixed run order.
var workloadNames = []string{"cold-corpus", "warm-whatif", "plan-search", "ingest-steady", "drift-replan"}

// endToEnd is what a caller of the advisory service sees.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "round_s", Unit: "s"},
	{Name: "op_p50_ms", Unit: "ms"},
	{Name: "op_p90_ms", Unit: "ms"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0,
		ReportOnly: "0 on every workload at the seed commit; the driver reads it from attempted/failed"},
	// round_s may grow by 25 %; its reciprocal then falls by 20 %.
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.20,
		ReportOnly: "defined on ingest-steady only, where it is records per round over round_s"},
}

// perLayer is measured in the traced run only. Times are sums over one
// replayed round; counts repeat exactly for a given seed.
var perLayer = []metricDef{
	{Name: "wfjson.decode_ms", Unit: "ms"},
	{Name: "wfjson.decode_bytes", Unit: "B"},
	{Name: "wfjson.fingerprint_ms", Unit: "ms"},
	{Name: "spec.build_ms", Unit: "ms"},
	{Name: "spec.build_self_ms", Unit: "ms"},
	{Name: "spec.build_calls", Unit: "count"},
	{Name: "spec.chain_states", Unit: "count"},
	{Name: "spec.clamped_stages", Unit: "count"},
	{Name: "ctmc.first_passage_ms", Unit: "ms"},
	{Name: "ctmc.expected_visits_ms", Unit: "ms"},
	{Name: "ctmc.turnaround_variance_ms", Unit: "ms"},
	{Name: "linalg.gauss_seidel_solves", Unit: "count"},
	{Name: "linalg.gauss_seidel_iterations", Unit: "count"},
	{Name: "linalg.lu_solves", Unit: "count"},
	{Name: "linalg.fallbacks", Unit: "count"},
	{Name: "perf.analysis_ms", Unit: "ms"},
	{Name: "perf.evaluate_ms", Unit: "ms"},
	{Name: "performability.evaluate_ms", Unit: "ms"},
	{Name: "performability.state_solves", Unit: "count"},
	{Name: "performability.state_hits", Unit: "count"},
	{Name: "performability.hit_ratio", Unit: "ratio"},
	{Name: "performability.cached_states", Unit: "count"},
	{Name: "avail.marginals_ms", Unit: "ms"},
	{Name: "avail.marginal_cache_size", Unit: "count"},
	{Name: "avail.joint_solve_ms", Unit: "ms"},
	{Name: "avail.joint_solve_iterations", Unit: "count"},
	{Name: "avail.joint_states", Unit: "count"},
	{Name: "config.assess_ms", Unit: "ms"},
	{Name: "config.greedy_ms", Unit: "ms"},
	{Name: "config.greedy_evaluations", Unit: "count"},
	{Name: "config.bnb_ms", Unit: "ms"},
	{Name: "config.bnb_evaluations", Unit: "count"},
	{Name: "sensitivity.compute_ms", Unit: "ms"},
	{Name: "sensitivity.evaluations", Unit: "count"},
	{Name: "wfnet.translate_ms", Unit: "ms"},
	{Name: "wfnet.expected_ms", Unit: "ms"},
	{Name: "wfnet.markings", Unit: "count"},
	{Name: "audit.read_records_ms", Unit: "ms"},
	{Name: "audit.records", Unit: "count"},
	{Name: "stream.observe_ms", Unit: "ms"},
	{Name: "stream.score_ms", Unit: "ms"},
	{Name: "stream.snapshot_ms", Unit: "ms"},
	{Name: "stream.dropped", Unit: "count"},
	{Name: "calibrate.apply_ms", Unit: "ms"},
	{Name: "server.self_ms", Unit: "ms"},
	{Name: "server.model_builds", Unit: "count"},
	{Name: "server.cache_warm", Unit: "count"},
	{Name: "server.controller_ms", Unit: "ms"},
	{Name: "server.poll_gap_ms", Unit: "ms"},
	{Name: "server.batch_warm_item_us", Unit: "us"},
	{Name: "trace.coverage", Unit: "ratio"},
	{Name: "trace.overhead_share", Unit: "ratio"},
}

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// endToEnd looks up one end-to-end metric of the spec.
func (s *benchmarkSpec) endToEnd(name string) (specMetric, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}
