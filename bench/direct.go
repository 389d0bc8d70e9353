package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"performa/internal/avail"
	"performa/internal/config"
	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/sensitivity"
	"performa/internal/server"
	"performa/internal/spec"
	"performa/internal/wfjson"
	"performa/internal/wfnet"
)

// This file takes a system through the layers by direct library calls:
// once untraced to compute the answers every reply is checked against,
// and once under spans to attribute a request's time to the layers.

// servedModel is the evaluation model a request without a "model" field
// gets from the server.
var servedModel = performability.Options{Policy: performability.ExcludeDown}

// assessGoals shape the verdict of an assessment, not its work.
var assessGoals = server.GoalsJSON{MaxWaiting: 1, MaxUnavailability: 1e-3}

func goalsOf(g server.GoalsJSON) config.Goals {
	return config.Goals{MaxWaiting: g.MaxWaiting, MaxUnavailability: g.MaxUnavailability}
}

// replayRun is one traced replay of a round.
type replayRun struct {
	tr     *tracer
	counts map[string]float64
	// workers is the pool width the server gives one admitted request
	// (admission.per_request on /v1/stats); the replayed planners run at
	// the same width so their spans compare with the server's time.
	workers int
}

// request scopes the replay of the round's n-th request.
func (r *replayRun) request(n int) *replayCtx {
	return &replayCtx{replayRun: r, request: n}
}

// replayCtx scopes the spans and counts of one replayed request. A nil
// *replayCtx runs the calls untraced, at the library's default width.
type replayCtx struct {
	*replayRun
	request int
	root    int // the open replay or probe root span
}

func (c *replayCtx) poolWidth() int {
	if c == nil {
		return 0
	}
	return c.workers
}

func (c *replayCtx) layer(name string, fn func()) {
	if c == nil {
		fn()
		return
	}
	c.tr.do(name, c.root, c.request, fn)
}

func (c *replayCtx) count(name string, v float64) {
	if c != nil {
		c.counts[name] += v
	}
}

// under runs fn with c re-rooted at a new root span of the given kind.
// Solver counts are taken over replay roots only: a probe repeats solves
// the replay already counted.
func (c *replayCtx) under(kind string, fn func(c *replayCtx) error) error {
	if c == nil {
		return fn(nil)
	}
	var before map[string]linalg.SolverCounter
	if kind == spanReplay {
		before = linalg.SolverCounters()
	}
	scoped := *c
	scoped.root = c.tr.open(kind, 0, c.request)
	err := fn(&scoped)
	c.tr.close(scoped.root)
	if kind == spanReplay {
		for solver, d := range linalg.SolverCountersDelta(before) {
			c.count("linalg.fallbacks", float64(d.Fallbacks))
			switch solver {
			case "gauss_seidel":
				c.count("linalg.gauss_seidel_solves", float64(d.Solves))
				c.count("linalg.gauss_seidel_iterations", float64(d.Iterations))
			case "lu":
				c.count("linalg.lu_solves", float64(d.Solves))
			}
		}
	}
	return err
}

// decodeSystem is the server's first step on every posted document.
func decodeSystem(c *replayCtx, docJSON []byte) (env *spec.Environment, flows []*spec.Workflow, err error) {
	c.layer("wfjson.decode", func() { env, flows, err = wfjson.Decode(bytes.NewReader(docJSON)) })
	if err != nil {
		return nil, nil, err
	}
	c.count("wfjson.decode_bytes", float64(len(docJSON)))
	c.layer("wfjson.fingerprint", func() { _, err = wfjson.Fingerprint(env, flows) })
	return env, flows, err
}

// direct is a system's models built by hand: what the server keeps in a
// warm cache entry.
type direct struct {
	env      *spec.Environment
	models   []*spec.Model
	analysis *perf.Analysis
	ev       *performability.Evaluator
}

// buildDirect is the server's cold path after decoding: one spec.Build
// per workflow, the aggregate analysis, and an empty evaluator.
func buildDirect(c *replayCtx, env *spec.Environment, flows []*spec.Workflow) (*direct, error) {
	d := &direct{env: env}
	for _, w := range flows {
		var m *spec.Model
		var err error
		c.layer("spec.build", func() { m, err = spec.Build(w, env) })
		if err != nil {
			return nil, err
		}
		c.count("spec.build_calls", 1)
		c.count("spec.chain_states", float64(m.Chain.N()))
		c.count("spec.clamped_stages", float64(m.ClampedStages()))
		d.models = append(d.models, m)
	}
	var err error
	c.layer("perf.analysis", func() { d.analysis, err = perf.NewAnalysis(env, d.models) })
	if err != nil {
		return nil, err
	}
	d.ev, err = performability.NewEvaluator(d.analysis, servedModel)
	return d, err
}

func (d *direct) options(c *replayCtx) config.Options {
	return config.Options{Performability: servedModel, Evaluator: d.ev, Workers: c.poolWidth()}
}

func (d *direct) assess(c *replayCtx, replicas []int, goals config.Goals) (*config.Assessment, error) {
	var as *config.Assessment
	var err error
	c.layer("config.assess", func() {
		as, err = config.Assess(d.analysis, perf.Config{Replicas: replicas}, goals, d.options(c))
	})
	return as, err
}

func (d *direct) greedy(c *replayCtx, goals config.Goals, cons config.Constraints) (*config.Recommendation, error) {
	var rec *config.Recommendation
	var err error
	c.layer("config.greedy", func() { rec, err = config.Greedy(d.analysis, goals, cons, d.options(c)) })
	if err == nil {
		c.count("config.greedy_evaluations", float64(rec.Evaluations))
	}
	return rec, err
}

func (d *direct) branchAndBound(c *replayCtx, goals config.Goals, cons config.Constraints) (*config.Recommendation, error) {
	var rec *config.Recommendation
	var err error
	c.layer("config.bnb", func() { rec, err = config.BranchAndBound(d.analysis, goals, cons, d.options(c)) })
	if err == nil {
		c.count("config.bnb_evaluations", float64(rec.Evaluations))
	}
	return rec, err
}

func (d *direct) sensitivity(c *replayCtx, replicas []int) (*sensitivity.Table, error) {
	var table *sensitivity.Table
	var err error
	c.layer("sensitivity.compute", func() {
		table, err = sensitivity.Compute(context.Background(), d.ev, perf.Config{Replicas: replicas}, sensitivity.Options{Workers: c.poolWidth()})
	})
	if err == nil {
		c.count("sensitivity.evaluations", float64(sensitivityEvaluations(table)))
	}
	return table, err
}

// sensitivityEvaluations is the number of model evaluations a table
// took, read off the difference scheme each entry reports: the base
// point, two points for a central difference, one for a one-sided one.
func sensitivityEvaluations(t *sensitivity.Table) int {
	n := 1
	for _, e := range t.Entries {
		switch e.Method {
		case "central", "central_discrete":
			n += 2
		case "forward", "backward", "forward_discrete":
			n++
		}
	}
	return n
}

// countEvaluatorSince records what a replay did to the evaluator's
// caches since the given snapshot.
func (d *direct) countEvaluatorSince(c *replayCtx, before performability.CacheStats) {
	st := d.ev.Stats().Sub(before)
	c.count("performability.state_solves", float64(st.Misses))
	c.count("performability.state_hits", float64(st.Hits))
	c.count("performability.cached_states", float64(d.ev.CachedStates()))
	c.count("avail.marginal_cache_size", float64(d.ev.Marginals().Size()))
}

// probeBuild repeats, on each chain just built, the absorbing-chain
// solves spec.Build runs inside itself. First passage and expected visits
// are the two Build runs on this chain; the second-moment solve is the
// one it runs on the dominant subworkflow of every parallel state, shown
// here at the size of the top-level chain.
func probeBuild(c *replayCtx, d *direct) error {
	for _, m := range d.models {
		var err error
		c.layer("ctmc.first_passage", func() { _, err = ctmc.FirstPassageTimes(m.Chain) })
		if err != nil {
			return err
		}
		c.layer("ctmc.expected_visits", func() { _, err = ctmc.ExpectedVisits(m.Chain) })
		if err != nil {
			return err
		}
		c.layer("ctmc.turnaround_variance", func() { _, err = ctmc.TurnaroundVariance(m.Chain) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probeNet runs the free-choice net oracle on every workflow. No timed
// workload requests it (model.turnaround "net" is opt-in), so this is a
// standing measurement of a layer the planners do not consume yet.
func probeNet(c *replayCtx, flows []*spec.Workflow) error {
	for _, w := range flows {
		var net *wfnet.Net
		var err error
		c.layer("wfnet.translate", func() { net, err = wfnet.FromWorkflow(w) })
		if err != nil {
			return err
		}
		var res *wfnet.Result
		c.layer("wfnet.expected", func() { res, err = wfnet.ExpectedDefault(net) })
		if err != nil {
			return err
		}
		c.count("wfnet.markings", float64(res.Markings))
	}
	return nil
}

// probeEvaluate repeats what an assessment or a planner does per
// candidate: the availability marginals, the failure-free performance
// model, and the performability evaluation over degraded states. With
// warm set the evaluator the replay used is evaluated again (every state
// a hit, as on a resident model); otherwise a fresh one pays the solves.
func probeEvaluate(c *replayCtx, d *direct, candidates [][]int, warm bool) error {
	ev := d.ev
	if !warm {
		var err error
		if ev, err = performability.NewEvaluator(d.analysis, servedModel); err != nil {
			return err
		}
	}
	for _, replicas := range candidates {
		cfg := perf.Config{Replicas: replicas}
		params, err := avail.ParamsFromEnvironment(d.env, replicas)
		if err != nil {
			return err
		}
		cache := avail.NewMarginalCache()
		c.layer("avail.marginals", func() {
			_, err = avail.EvaluateProductFormSolver(params, servedModel.Discipline, false, cache, servedModel.Solver)
		})
		if err != nil {
			return err
		}
		c.layer("perf.evaluate", func() { _, err = d.analysis.Evaluate(cfg) })
		if err != nil {
			return err
		}
		c.layer("performability.evaluate", func() { _, err = ev.Evaluate(cfg) })
		if err != nil {
			return err
		}
	}
	return nil
}

// jointSolveReplicas is the 32768-state joint availability chain of
// BENCH_solver.json, with that file's harsh per-server unavailabilities.
var jointSolveReplicas = []int{7, 7, 7, 7, 7}

// probeJointSolve solves the joint availability chain with the auto
// strategy. Serving always takes the product-form path, so no timed
// workload reaches this solver; the probe keeps it measured.
func probeJointSolve(c *replayCtx) error {
	us := []float64{0.30, 0.40, 0.45}
	params := make([]avail.TypeParams, len(jointSolveReplicas))
	for i, y := range jointSolveReplicas {
		u := us[i%len(us)]
		params[i] = avail.TypeParams{Replicas: y, FailureRate: u / (1 - u), RepairRate: 1}
	}
	before := linalg.SolverCounters()
	var rep *avail.Report
	var err error
	c.layer("avail.joint_solve", func() { rep, err = avail.EvaluateSolver(params, avail.IndependentRepair, ctmc.SolverAuto) })
	if err != nil {
		return err
	}
	for _, d := range linalg.SolverCountersDelta(before) {
		c.count("avail.joint_solve_iterations", float64(d.Iterations))
	}
	c.count("avail.joint_states", float64(len(rep.StateProbs)))
	return nil
}

// assessWant is the part of an assessment the replies are held to, bit
// for bit.
type assessWant struct {
	maxWaiting     float64
	unavailability float64
	waiting        []float64
}

func wantOf(as *config.Assessment) assessWant {
	return assessWant{
		maxWaiting:     as.Perf.MaxWaiting(),
		unavailability: as.Unavailability,
		waiting:        append([]float64(nil), as.Perf.Waiting...),
	}
}

// assessmentReply is the part of server.AssessmentJSON the checks read.
type assessmentReply struct {
	Config         []int          `json:"config"`
	Waiting        []server.Float `json:"waiting"`
	MaxWaiting     server.Float   `json:"max_waiting"`
	Unavailability float64        `json:"unavailability"`
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (w assessWant) check(got assessmentReply) error {
	if !sameBits(float64(got.MaxWaiting), w.maxWaiting) {
		return fmt.Errorf("max waiting %v, direct assessment gives %v", float64(got.MaxWaiting), w.maxWaiting)
	}
	if !sameBits(got.Unavailability, w.unavailability) {
		return fmt.Errorf("unavailability %v, direct assessment gives %v", got.Unavailability, w.unavailability)
	}
	if len(got.Waiting) != len(w.waiting) {
		return fmt.Errorf("%d per-type waiting times, direct assessment gives %d", len(got.Waiting), len(w.waiting))
	}
	for x, v := range got.Waiting {
		if !sameBits(float64(v), w.waiting[x]) {
			return fmt.Errorf("waiting[%d] %v, direct assessment gives %v", x, float64(v), w.waiting[x])
		}
	}
	return nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
