package performa

// Benchmark harness: one benchmark per experiment table of EXPERIMENTS.md
// (E1–E8 reproduce the paper's evaluation artifacts, A1–A4 are design
// ablations), plus micro-benchmarks of the analytic kernels. Run with
//
//	go test -bench=. -benchmem
//
// and regenerate the full tables with cmd/wfmsbench.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/avail"
	"performa/internal/config"
	"performa/internal/ctmc"
	"performa/internal/experiments"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/sensitivity"
	"performa/internal/server"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/stream"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

// BenchmarkE1AvailabilityExample regenerates the Section 5.2 worked
// example (71 h/yr → 10 s/yr → < 1 min/yr).
func BenchmarkE1AvailabilityExample(b *testing.B) {
	env := workload.PaperEnvironment()
	params, err := avail.ParamsFromEnvironment(env, []int{2, 2, 3})
	if err != nil {
		b.Fatal(err)
	}
	var downtime float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := avail.Evaluate(params, avail.IndependentRepair)
		if err != nil {
			b.Fatal(err)
		}
		downtime = rep.DowntimeHoursPerYear
	}
	b.ReportMetric(downtime*3600, "downtime-s/yr")
}

// BenchmarkE2EPWorkflow regenerates the Figure 4 CTMC analysis.
func BenchmarkE2EPWorkflow(b *testing.B) {
	env := workload.PaperEnvironment()
	w := workload.EPWorkflow(1)
	var turnaround float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := spec.Build(w, env)
		if err != nil {
			b.Fatal(err)
		}
		turnaround = m.Turnaround()
	}
	b.ReportMetric(turnaround, "turnaround-min")
}

// BenchmarkE3Throughput regenerates the load/throughput table.
func BenchmarkE3Throughput(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(10), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	var maxTp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := a.Evaluate(perf.Config{Replicas: []int{2, 2, 2}})
		if err != nil {
			b.Fatal(err)
		}
		maxTp = rep.MaxWorkflowThroughput
	}
	b.ReportMetric(maxTp, "max-wf/min")
}

// BenchmarkE4WaitingCurve regenerates the M/G/1 waiting curve.
func BenchmarkE4WaitingCurve(b *testing.B) {
	env := workload.PaperEnvironment()
	rhos := []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
	var w95 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := perf.WaitingCurve(env.Type(1), rhos)
		w95 = curve[6]
	}
	b.ReportMetric(w95, "w(rho=0.95)-min")
}

// BenchmarkE5Performability regenerates the W^Y evaluation for (2,2,3).
func BenchmarkE5Performability(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(5), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	var wy float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := performability.Evaluate(a, perf.Config{Replicas: []int{2, 2, 3}},
			performability.Options{Policy: performability.ExcludeDown})
		if err != nil {
			b.Fatal(err)
		}
		wy = res.MaxWaiting()
	}
	b.ReportMetric(wy, "Wy-min")
}

// BenchmarkE6Greedy regenerates a greedy planning run.
func BenchmarkE6Greedy(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(5), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	goals := config.Goals{MaxWaiting: 0.001, MaxUnavailability: 1e-5}
	var cost int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := config.Greedy(a, goals, config.Constraints{}, config.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cost = rec.Cost
	}
	b.ReportMetric(float64(cost), "servers")
}

// BenchmarkE6Exhaustive is the optimal-baseline search for the same goals.
func BenchmarkE6Exhaustive(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(5), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	goals := config.Goals{MaxWaiting: 0.001, MaxUnavailability: 1e-5}
	cons := config.Constraints{MaxReplicas: []int{6, 6, 6}}
	var cost int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := config.Exhaustive(context.Background(), a, goals, cons, config.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cost = rec.Cost
	}
	b.ReportMetric(float64(cost), "servers")
}

// BenchmarkE7Validation runs a short analytic-versus-simulation
// comparison (the full table comes from cmd/wfmsbench -exp e7).
func BenchmarkE7Validation(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(3), env)
	if err != nil {
		b.Fatal(err)
	}
	var waiting float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Params{
			Env: env, Models: []*spec.Model{m},
			Replicas: []int{2, 2, 2},
			Seed:     uint64(i), Horizon: 2000, Warmup: 200,
			Dispatch: sim.Random,
		})
		if err != nil {
			b.Fatal(err)
		}
		waiting = res.Waiting[2].Mean
	}
	b.ReportMetric(waiting, "w-app-sim-min")
}

// BenchmarkE8Calibration runs the mapping→execution→calibration loop on
// a small instance count.
func BenchmarkE8Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Calibration(experiments.E8Options{
			Seed: uint64(i), Instances: 100,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Quantile measures one turnaround-percentile evaluation on
// the EP chain (uniformized transient analysis + bisection).
func BenchmarkE9Quantile(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(1), env)
	if err != nil {
		b.Fatal(err)
	}
	var p95 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p95, err = m.TurnaroundQuantile(0.95)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p95, "p95-min")
}

// BenchmarkE11BranchAndBound measures branch-and-bound on EP @ 5/min
// capped at six replicas per type, against BenchmarkExhaustive's scan
// of the same box (see BenchmarkE6* for greedy). FuzzPlannersAgree and
// the answer ledger's branch_and_bound rows pin what it answers.
func BenchmarkE11BranchAndBound(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(5), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	goals := config.Goals{MaxWaiting: 0.001, MaxUnavailability: 1e-5}
	cons := config.Constraints{MaxReplicas: []int{6, 6, 6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := config.BranchAndBound(a, goals, cons, config.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustive measures the exhaustive planner's sequential scan
// of BenchmarkE11BranchAndBound's search space: the optimality baseline
// greedy and branch-and-bound are compared against.
func BenchmarkExhaustive(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(5), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	goals := config.Goals{MaxWaiting: 0.001, MaxUnavailability: 1e-5}
	cons := config.Constraints{MaxReplicas: []int{6, 6, 6}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := config.Exhaustive(context.Background(), a, goals, cons, config.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssessCached measures one performability evaluation on a
// resident evaluator (availability marginals already solved) — the
// per-candidate cost a configuration search pays.
func BenchmarkAssessCached(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(5), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	cfg := perf.Config{Replicas: []int{3, 3, 4}}
	ev, err := performability.NewEvaluator(a, performability.Options{Policy: performability.ExcludeDown})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ev.Evaluate(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// planSearchGreedy is the plan-search system at 25 instances per minute
// (the 7-type extended environment) under the served model, and the
// greedy answer found through the evaluator it returns — the state a
// resident model is in after the workload's first request.
func planSearchGreedy(b *testing.B) (*perf.Analysis, performability.Options, *performability.Evaluator, *config.Recommendation) {
	b.Helper()
	env := workload.ExtendedEnvironment()
	m, err := spec.Build(workload.EPDistributed(25), env)
	if err != nil {
		b.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		b.Fatal(err)
	}
	served := performability.Options{Policy: performability.ExcludeDown}
	ev, err := performability.NewEvaluator(a, served)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := config.Greedy(a, planSearchGoals, config.Constraints{}, config.Options{Performability: served, Evaluator: ev})
	if err != nil {
		b.Fatal(err)
	}
	return a, served, ev, rec
}

var planSearchGoals = config.Goals{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}

// BenchmarkSensitivityTable measures one sensitivity table as the
// plan-search workload asks for it: at the greedy answer, through one
// resident evaluator — what GET /v1/sensitivity and every drift advisory
// compute.
func BenchmarkSensitivityTable(b *testing.B) {
	_, _, ev, rec := planSearchGreedy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sensitivity.Compute(context.Background(), ev, rec.Config, sensitivity.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServedBranchAndBound measures the plan-search workload's
// branch-and-bound: capped one replica above the greedy answer, through
// the evaluator greedy warmed, as a resident model serves it. Every
// candidate's per-type terms come from the evaluator's term table.
func BenchmarkServedBranchAndBound(b *testing.B) {
	a, served, ev, greedy := planSearchGreedy(b)
	limit := make([]int, len(greedy.Config.Replicas))
	for x, y := range greedy.Config.Replicas {
		limit[x] = y + 1
	}
	opts := config.Options{Performability: served, Evaluator: ev}
	var evaluations int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := config.BranchAndBound(a, planSearchGoals, config.Constraints{MaxReplicas: limit}, opts)
		if err != nil {
			b.Fatal(err)
		}
		evaluations = rec.Evaluations
	}
	b.ReportMetric(float64(evaluations), "evaluations")
}

// BenchmarkSensitivityReply measures encoding the plan-search table's
// GET /v1/sensitivity reply (~16 KB): appended, as the server writes it,
// and through encoding/json's reflection, which writes the same bytes.
func BenchmarkSensitivityReply(b *testing.B) {
	_, _, _, rec := planSearchGreedy(b)
	doc, err := wfjson.ToDocument(workload.ExtendedEnvironment(), []*spec.Workflow{workload.EPDistributed(25)})
	if err != nil {
		b.Fatal(err)
	}
	svc := server.New(server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	body, err := json.Marshal(server.AssessRequest{System: *doc, Config: rec.Config.Replicas, Goals: server.GoalsJSON{MaxUnavailability: 1e-6}})
	if err != nil {
		b.Fatal(err)
	}
	var assessed server.AssessResponse
	serveJSON(b, svc.Handler(), httptest.NewRequest(http.MethodPost, "/v1/assess", bytes.NewReader(body)), &assessed)
	config := make([]string, len(rec.Config.Replicas))
	for x, y := range rec.Config.Replicas {
		config[x] = strconv.Itoa(y)
	}
	var reply server.SensitivityResponse
	served := serveJSON(b, svc.Handler(), httptest.NewRequest(http.MethodGet,
		"/v1/sensitivity?fingerprint="+assessed.Fingerprint+"&config="+strings.Join(config, ","), nil), &reply)
	buf, err := server.AppendReply(nil, reply)
	if err != nil || !bytes.Equal(append(buf, '\n'), served) {
		b.Fatalf("the decoded reply re-encodes to other bytes (%v)", err)
	}
	for _, enc := range []struct {
		name   string
		encode func() ([]byte, error)
	}{
		{"appended", func() ([]byte, error) { return server.AppendReply(buf[:0], reply) }},
		{"encoding_json", func() ([]byte, error) { return json.Marshal(reply) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, err := enc.encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serveJSON serves req through h, requires a 200, decodes the reply into
// v and returns its bytes.
func serveJSON(b *testing.B, h http.Handler, req *http.Request, v any) []byte {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		b.Fatal(err)
	}
	return rec.Body.Bytes()
}

// BenchmarkReadRecords measures the decode layer of POST /v1/events on
// the batch the ingest-steady workload posts: 2,000 JSON lines of an
// audit trail simulated from the EP workflow (~240 KB), decoded by
// DecodeRecords into one recycled record buffer and cleared after each
// batch, as the handler does. "one-goroutine" runs at GOMAXPROCS 1,
// "split" at GOMAXPROCS 2, where the batch is decoded in two chunks.
func BenchmarkReadRecords(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(3), env)
	if err != nil {
		b.Fatal(err)
	}
	const records = 2000
	full := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m},
		Replicas: []int{3, 3, 4},
		Seed:     1, Horizon: records / 40,
		Trail: full,
	}); err != nil {
		b.Fatal(err)
	}
	if full.Len() < records {
		b.Fatalf("simulated trail has %d records, want %d", full.Len(), records)
	}
	batch := audit.NewTrail()
	batch.AppendBatch(full.Records()[:records])
	var lines bytes.Buffer
	if err := batch.WriteJSONLines(&lines); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		procs int
	}{{"one-goroutine", 1}, {"split", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
			b.SetBytes(int64(lines.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			var recs []audit.Record
			for i := 0; i < b.N; i++ {
				var err error
				recs, err = audit.DecodeRecords(recs[:0], lines.Bytes(), 0)
				if err != nil || len(recs) != records {
					b.Fatalf("decoded %d records: %v", len(recs), err)
				}
				clear(recs)
			}
		})
	}
}

// BenchmarkObserveBatch measures the fold layer of POST /v1/events on
// the trail the ingest-steady workload posts: 100 batches of 2,000
// records simulated from the EP workflow at (3,3,4), each decoded by
// DecodeRecords before the timer starts, folded in order into a fresh
// estimator per iteration by Estimator.ObserveBatch, as the server folds
// one stream (ns/record, allocs/op).
func BenchmarkObserveBatch(b *testing.B) {
	const batches, records = 100, 2000
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(3), env)
	if err != nil {
		b.Fatal(err)
	}
	full := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m},
		Replicas: []int{3, 3, 4},
		Seed:     1, Horizon: float64(batches*records) / 150,
		Trail: full,
	}); err != nil {
		b.Fatal(err)
	}
	all := full.Records()
	if len(all) < batches*records {
		b.Fatalf("simulated trail has %d records, want %d", len(all), batches*records)
	}
	decoded := make([][]audit.Record, batches)
	for k := range decoded {
		var lines bytes.Buffer
		enc := json.NewEncoder(&lines)
		for _, r := range all[k*records : (k+1)*records] {
			if err := enc.Encode(r); err != nil {
				b.Fatal(err)
			}
		}
		if decoded[k], err = audit.DecodeRecords(nil, lines.Bytes(), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := stream.NewEstimator(stream.Options{})
		for _, recs := range decoded {
			est.ObserveBatch(recs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches*records), "ns/record")
}

// BenchmarkDecodeFingerprint measures decode, FromDocument, Fingerprint:
// the spec objects and digest a posted system needs for a model build.
// One iteration takes the 22 corpus systems through it, each in the
// compact form a client's json.Marshal posts.
func BenchmarkDecodeFingerprint(b *testing.B) {
	posted, size := postedCorpus(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range posted {
			env, flows, err := wfjson.Decode(bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wfjson.Fingerprint(env, flows); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWarmFingerprint measures what the server does to a posted
// system before it can look up a model: parse, and fingerprint with no
// spec objects, by the digest of bytes IsCanonical certifies, else by
// FingerprintDocument. Same 22 documents as
// BenchmarkDecodeFingerprint; all of them are certified.
func BenchmarkWarmFingerprint(b *testing.B) {
	posted, size := postedCorpus(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range posted {
			var doc wfjson.Document
			if _, ok := wfjson.ParseDocument(body, &doc); !ok {
				b.Fatal("parser refused a corpus document")
			}
			if wfjson.IsCanonical(body, &doc) {
				sum := sha256.Sum256(body)
				_ = hex.EncodeToString(sum[:])
			} else if _, ok := wfjson.FingerprintDocument(&doc); !ok {
				b.Fatal("canonicalisation refused a corpus document")
			}
		}
	}
}

// postedCorpus returns the 22 corpus systems as a client posts them,
// compact canonical JSON, and their total size.
func postedCorpus(b *testing.B) (posted [][]byte, size int64) {
	files, err := filepath.Glob("corpus/systems/*.wfjson")
	if err != nil || len(files) != 22 {
		b.Fatalf("found %d corpus systems, want 22: %v", len(files), err)
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			b.Fatal(err)
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			b.Fatalf("%s: %v", file, err)
		}
		doc, err := wfjson.ToDocument(env, flows)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		posted = append(posted, body)
		size += int64(len(body))
	}
	return posted, size
}

// BenchmarkCorpusBuild measures the cold path after decoding: one
// iteration runs spec.Build over every workflow of the 22 corpus systems.
func BenchmarkCorpusBuild(b *testing.B) {
	files, err := filepath.Glob("corpus/systems/*.wfjson")
	if err != nil || len(files) != 22 {
		b.Fatalf("found %d corpus systems, want 22: %v", len(files), err)
	}
	type system struct {
		env   *spec.Environment
		flows []*spec.Workflow
	}
	var systems []system
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			b.Fatal(err)
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			b.Fatalf("%s: %v", file, err)
		}
		systems = append(systems, system{env, flows})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			for _, w := range sys.flows {
				if _, err := spec.Build(w, sys.env); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkA1SeriesVsExact compares the truncated series against the
// direct solve on the EP chain.
func BenchmarkA1SeriesVsExact(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(1), env)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("series-99.99", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ctmc.ExpectedVisitsSeries(m.Chain, ctmc.SeriesOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ctmc.ExpectedVisits(m.Chain); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA2AvailabilitySolvers contrasts the exact joint CTMC with the
// product form as the state space grows; E1 prints both unavailabilities
// and the avail tests check that they agree.
func BenchmarkA2AvailabilitySolvers(b *testing.B) {
	env := workload.PaperEnvironment()
	for _, y := range []int{2, 4, 6} {
		params, err := avail.ParamsFromEnvironment(env, []int{y, y, y})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("exact-Y"+string(rune('0'+y)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := avail.Evaluate(params, avail.IndependentRepair); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("product-Y"+string(rune('0'+y)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := avail.EvaluateProductForm(params, avail.IndependentRepair, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFirstPassage measures the Section 4.1 linear solve on the
// largest stage chain in the corpus (genome-sequencing, 961 states).
func BenchmarkFirstPassage(b *testing.B) {
	f, err := os.Open("corpus/systems/genome-sequencing.wfjson")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	env, flows, err := wfjson.Decode(f)
	if err != nil {
		b.Fatal(err)
	}
	m, err := spec.Build(flows[0], env)
	if err != nil {
		b.Fatal(err)
	}
	m = spec.Expand(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctmc.FirstPassageTimes(m.Chain); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Chain.N()), "states")
}

// BenchmarkSteadyState measures the availability steady-state solve at a
// 125-state system CTMC.
func BenchmarkSteadyState(b *testing.B) {
	env := workload.PaperEnvironment()
	params, err := avail.ParamsFromEnvironment(env, []int{4, 4, 4})
	if err != nil {
		b.Fatal(err)
	}
	model, err := avail.NewModel(params, avail.IndependentRepair)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemAssess measures a full three-model assessment.
func BenchmarkSystemAssess(b *testing.B) {
	sys, err := NewSystem(workload.PaperEnvironment(),
		workload.EPWorkflow(3), workload.OrderWorkflow(2), workload.LoanWorkflow(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Configuration{Replicas: []int{2, 2, 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Assess(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorEvents measures raw simulator event throughput: one
// fixed seed, so every iteration simulates the same run.
func BenchmarkSimulatorEvents(b *testing.B) {
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(10), env)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Params{
			Env: env, Models: []*spec.Model{m},
			Replicas: []int{2, 2, 2},
			Seed:     1, Horizon: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkSimulateTrail runs the simulation of the ingest-steady
// workload's set-up: the paper environment under EPWorkflow(3) on
// replicas (3,3,4), seed 1, recording the audit trail of 200,000
// records' worth of horizon (150 records per minute), then reading it
// back in time order. The collapsed sub-benchmark is that set-up; the
// true-concurrency one walks the same horizon over the chart plan.
func BenchmarkSimulateTrail(b *testing.B) {
	sys, err := NewSystem(workload.PaperEnvironment(), workload.EPWorkflow(3))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name       string
		concurrent bool
	}{{"collapsed", false}, {"true-concurrency", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var events uint64
			var records int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trail := audit.NewTrail()
				res, err := sys.Simulate(SimParams{
					Replicas:        []int{3, 3, 4},
					Seed:            1,
					Horizon:         200_000.0 / 150,
					Trail:           trail,
					TrueConcurrency: mode.concurrent,
				})
				if err != nil {
					b.Fatal(err)
				}
				if records = len(trail.Records()); records < 200_000 {
					b.Fatalf("trail has %d records, want 200,000", records)
				}
				events = res.Events
			}
			b.ReportMetric(float64(events), "events/run")
			b.ReportMetric(float64(records), "records/run")
		})
	}
}

// serverBenchSystem builds the request body the serving benchmarks
// post: the paper environment under the EP workflow, as a wfjson
// document inside a /v1/recommend request.
func serverBenchSystem(b *testing.B) []byte {
	b.Helper()
	env := workload.PaperEnvironment()
	doc, err := wfjson.ToDocument(env, []*spec.Workflow{workload.EPWorkflow(5)})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"system":  doc,
		"planner": "greedy",
		"goals":   map[string]any{"max_waiting": 0.005, "max_unavailability": 1e-5},
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func postRecommend(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkE14ServerRecommendCold measures a /v1/recommend request
// against a cold wfmsd model cache: every iteration stands up a fresh
// service, so the request pays the full model build (spec → analysis →
// evaluator) plus the greedy search.
func BenchmarkE14ServerRecommendCold(b *testing.B) {
	body := serverBenchSystem(b)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := server.New(server.Options{Workers: 2, Logger: logger})
		ts := httptest.NewServer(svc.Handler())
		b.StartTimer()
		postRecommend(b, ts.URL, body)
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
}

// BenchmarkE14ServerRecommendWarm measures the same request against a
// warm cache: the model entry is resident and the shared evaluator's
// availability marginals are already solved, so the request reduces to
// admission, decode and the search's per-type reductions.
func BenchmarkE14ServerRecommendWarm(b *testing.B) {
	body := serverBenchSystem(b)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	svc := server.New(server.Options{Workers: 2, Logger: logger})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	postRecommend(b, ts.URL, body) // warm the model entry and evaluator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postRecommend(b, ts.URL, body)
	}
}
