package server

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/linalg"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning a
// cache-hit assessment (sub-millisecond) to a cold exhaustive search.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram with atomic counters:
// observations are lock-free, snapshots are approximate but internally
// consistent enough for monitoring.
type histogram struct {
	counts []atomic.Uint64 // one per bucket, plus +Inf at the end
	// sumNanos accumulates the total observed latency for mean
	// reporting; uint64 nanoseconds overflow after ~584 years of
	// cumulative request time.
	sumNanos atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
}

// snapshot returns cumulative bucket counts (Prometheus convention),
// the total count, and the sum in seconds.
//
// The total is derived from the bucket counts themselves (it is the
// final cumulative entry), never from a separate counter: a separate
// atomic can lead the bucket reads under concurrent observe calls, and
// a rank computed from that larger total exceeds the cumulative mass,
// which made quantile spuriously return +Inf.
func (h *histogram) snapshot() (cum []uint64, total uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	return cum, acc, float64(h.sumNanos.Load()) / 1e9
}

// quantile estimates the q-quantile (0 < q < 1) from the bucket counts,
// attributing each bucket's mass to its upper bound — the usual
// conservative histogram estimate. NaN with no observations.
func (h *histogram) quantile(q float64) float64 {
	cum, total, _ := h.snapshot()
	if total == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	for i, c := range cum {
		if c >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// endpointMetrics tracks one route.
type endpointMetrics struct {
	endpoint string
	inflight atomic.Int64
	latency  *histogram

	mu       sync.Mutex
	byStatus map[int]uint64
}

func newEndpointMetrics(endpoint string) *endpointMetrics {
	return &endpointMetrics{
		endpoint: endpoint,
		latency:  newHistogram(),
		byStatus: make(map[int]uint64),
	}
}

func (m *endpointMetrics) observe(status int, d time.Duration) {
	m.latency.observe(d)
	m.mu.Lock()
	m.byStatus[status]++
	m.mu.Unlock()
}

// stats summarizes the route for /v1/stats.
func (m *endpointMetrics) stats() EndpointStatsJSON {
	_, total, sum := m.latency.snapshot()
	st := EndpointStatsJSON{
		Requests: total,
		ByStatus: make(map[int]uint64),
		Inflight: m.inflight.Load(),
	}
	m.mu.Lock()
	for k, v := range m.byStatus {
		st.ByStatus[k] = v
	}
	m.mu.Unlock()
	if total > 0 {
		st.MeanMS = Float(sum / float64(total) * 1e3)
		st.P50MS = Float(m.latency.quantile(0.50) * 1e3)
		st.P95MS = Float(m.latency.quantile(0.95) * 1e3)
		st.P99MS = Float(m.latency.quantile(0.99) * 1e3)
	}
	return st
}

// promWriter renders the Prometheus text exposition format.
type promWriter struct{ strings.Builder }

// family opens a metric family: its HELP and TYPE lines.
func (p *promWriter) family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample of the family name; labels are label()s.
func (p *promWriter) sample(name string, v any, labels ...string) {
	if len(labels) > 0 {
		name += "{" + strings.Join(labels, ",") + "}"
	}
	fmt.Fprintf(p, "%s %v\n", name, v)
}

// metric writes a family of one unlabeled sample.
func (p *promWriter) metric(name, typ, help string, v any) {
	p.family(name, typ, help)
	p.sample(name, v)
}

// label renders one name="value" label pair.
func label(name, value string) string { return name + "=" + strconv.Quote(value) }

// writePrometheus renders h's series of the histogram family name.
func (h *histogram) writePrometheus(p *promWriter, name string, labels ...string) {
	cum, total, sum := h.snapshot()
	for i, c := range cum {
		le := "+Inf"
		if i < len(latencyBuckets) {
			le = strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
		}
		p.sample(name+"_bucket", c, append(labels[:len(labels):len(labels)], label("le", le))...)
	}
	p.sample(name+"_sum", sum, labels...)
	p.sample(name+"_count", total, labels...)
}

// stats is one read of every owner's counters: the /v1/stats body, and
// the values /metrics renders.
func (s *Server) stats() StatsResponse {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Endpoints:     make(map[string]EndpointStatsJSON, len(s.endpoints)),
		Solvers:       linalg.SolverCounters(),
	}
	for name, m := range s.endpoints {
		resp.Endpoints[name] = m.stats()
	}
	s.models.stats(&resp)
	s.sem.stats(&resp)
	s.streams.stats(&resp)
	s.batches.stats(&resp)
	s.errs.stats(&resp)
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.stats())
}

// handleMetrics renders the stats snapshot, plus the series only
// /metrics has (latency histograms, drift scores, the controller's),
// which their owners write.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.stats()
	var p promWriter
	p.family("wfmsd_requests_total", "counter", "Requests served, by endpoint and status code.")
	for _, name := range sortedKeys(st.Endpoints) {
		byStatus := st.Endpoints[name].ByStatus
		for _, code := range sortedKeys(byStatus) {
			p.sample("wfmsd_requests_total", byStatus[code], label("endpoint", name), label("code", strconv.Itoa(code)))
		}
	}
	labeled(&p, "wfmsd_inflight_requests", "gauge", "Requests in flight, by endpoint.", "endpoint",
		st.Endpoints, func(e EndpointStatsJSON) any { return e.Inflight })
	p.family("wfmsd_request_duration_seconds", "histogram", "Request latency histogram.")
	for _, name := range sortedKeys(s.endpoints) {
		s.endpoints[name].latency.writePrometheus(&p, "wfmsd_request_duration_seconds", label("endpoint", name))
	}

	p.metric("wfmsd_model_cache_entries", "gauge", "Warm system models resident in the LRU.", st.ModelCache.Size)
	p.metric("wfmsd_model_cache_hits_total", "counter", "Model cache hits.", st.ModelCache.Hits)
	p.metric("wfmsd_model_cache_misses_total", "counter", "Model cache misses (cold builds).", st.ModelCache.Misses)
	p.metric("wfmsd_model_cache_evictions_total", "counter", "Model cache LRU evictions.", st.ModelCache.Evictions)
	p.metric("wfmsd_clamped_stages_total", "counter", "Stage-clamped subworkflow collapses across cold model builds.", st.ClampedStages)

	p.metric("wfmsd_events_ingested_total", "counter", "Audit records ingested via /v1/events.", st.Ingest.Events)
	p.metric("wfmsd_event_batches_total", "counter", "Event batches ingested via /v1/events.", st.Ingest.Batches)
	p.metric("wfmsd_drift_invalidations_total", "counter", "Warm-model invalidations triggered by drift detection.", st.Ingest.Invalidations)
	p.metric("wfmsd_ingest_streams", "gauge", "Per-system ingestion streams resident.", st.Ingest.Streams)
	s.streams.writeMetrics(&p)
	s.ctrl.writeMetrics(&p)

	labeled(&p, "wfmsd_errors_total", "counter", "Error responses by machine-readable code.", "code",
		st.Errors, func(n uint64) any { return n })
	p.metric("wfmsd_panics_total", "counter", "Panics recovered in handlers, batch items and re-plans.", st.Panics)

	p.metric("wfmsd_admission_in_use", "gauge", "Planner-worker tokens currently held.", st.Admission.InUse)
	p.metric("wfmsd_admission_waiting", "gauge", "Requests queued for planner-worker tokens.", st.Admission.Waiting)

	p.metric("wfmsd_batch_items_total", "counter", "Items processed by the batch endpoints.", st.Batch.Items)
	p.metric("wfmsd_batch_builds_total", "counter", "Cold model builds performed by batch requests (misses after fingerprint grouping).", st.Batch.Builds)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, p.String())
}

// labeled writes the family name with one sample per entry of m, the
// key as label key, in key order.
func labeled[V any](p *promWriter, name, typ, help, key string, m map[string]V, value func(V) any) {
	p.family(name, typ, help)
	for _, k := range sortedKeys(m) {
		p.sample(name, value(m[k]), label(key, k))
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
