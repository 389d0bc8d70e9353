// Package sim is a discrete-event simulator of the paper's architectural
// model (Section 2): replicated server types with FCFS queues, workflow
// instances, round-robin load partitioning, and optional server failures
// with repair and online failover. It stands in for the testbed
// measurements of Section 8 and is used to validate the analytic
// performance, availability, and performability models.
//
// One token walker moves every instance through a plan (concurrent.go):
// by default the flat plan of the workflow's collapsed CTMC, whose
// control flow the analytic models describe, and with
// Params.TrueConcurrency the uncollapsed statechart with fork/join
// tokens.
package sim

import (
	"fmt"
	"math"

	"performa/internal/audit"
	"performa/internal/des"
	"performa/internal/dist"
	"performa/internal/spec"
)

// Params configures one simulation run. All times share the environment's
// time unit.
type Params struct {
	// Env is the server-type universe.
	Env *spec.Environment
	// Models is the workflow mix; each model's workflow carries its
	// arrival rate.
	Models []*spec.Model
	// Replicas is the configuration vector Y.
	Replicas []int
	// ServiceDists optionally overrides the per-type service-time
	// distribution; nil entries (or a nil slice) default to an
	// exponential with the type's mean, whose moments then match the
	// environment's declared moments only if those are exponential too.
	ServiceDists []dist.Distribution
	// EnableFailures turns on per-server failure/repair processes using
	// the environment's rates.
	EnableFailures bool
	// FailureDists optionally overrides the per-type time-to-failure
	// distribution (default: exponential with mean 1/λ_x). Used to
	// verify the renewal-insensitivity of steady-state availability to
	// the failure-time shape.
	FailureDists []dist.Distribution
	// RepairDists optionally overrides the per-type repair-time
	// distribution (default: exponential with mean 1/μ_x).
	RepairDists []dist.Distribution
	// Seed makes runs reproducible.
	Seed uint64
	// Horizon is the simulated duration.
	Horizon float64
	// Warmup discards statistics before this time.
	Warmup float64
	// MaxEvents bounds the run as a safety net; zero means 50 million.
	MaxEvents uint64
	// Dispatch selects the load-partitioning policy among the replicas
	// of a type (Section 4.4 allows "round-robin or random").
	Dispatch DispatchPolicy
	// Colocated lists groups of server-type indices sharing the same
	// computers (Section 4.4's generalized case): the group's types
	// must have equal replica counts, and each computer serves the
	// merged request stream with type-specific service times. Waiting
	// statistics remain per type.
	Colocated [][]int
	// TrueConcurrency walks each instance through the UNCOLLAPSED
	// statechart with fork/join tokens (one token per orthogonal
	// subchart, join barriers) instead of the flat plan of the collapsed
	// CTMC, so the measured turnaround carries the true E[max] of
	// parallel branches rather than the paper's max-of-means collapse.
	// Requires every model to carry its Workflow (chart + profiles). See
	// concurrent.go.
	TrueConcurrency bool
	// Trail optionally collects an audit trail of the run: instance
	// life cycles, state entries/exits, activity spans, and per-request
	// waiting/service times — the same record stream a production WFMS
	// would emit, usable as calibration input (package calibrate,
	// package stream) and for replay against a running daemon
	// (cmd/wfmsreplay). The collapsed mode records the top-level chart
	// only; the true-concurrency mode records every chart level and
	// attributes each service request to its instance and activity.
	// Recording draws no random numbers, so enabling it does not
	// perturb the simulated run.
	Trail *audit.Trail
}

// DispatchPolicy selects how requests are assigned to replicas.
type DispatchPolicy int

const (
	// RoundRobin cycles deterministically through the up servers.
	RoundRobin DispatchPolicy = iota
	// Random picks an up server uniformly at random; random splitting
	// of a Poisson stream stays Poisson, which is the regime the M/G/1
	// model describes exactly.
	Random
	// SharedQueue keeps one central queue per server type; any idle up
	// replica takes the next request. This is the M/M/c pooling regime
	// (work-conserving), which waits strictly less than the paper's
	// split-queue model — see ablation A7.
	SharedQueue
)

// String returns the policy's name.
func (d DispatchPolicy) String() string {
	switch d {
	case RoundRobin:
		return "round-robin"
	case Random:
		return "random"
	case SharedQueue:
		return "shared-queue"
	default:
		return fmt.Sprintf("DispatchPolicy(%d)", int(d))
	}
}

func (p Params) validate() error {
	if p.Env == nil {
		return fmt.Errorf("sim: nil environment")
	}
	if len(p.Models) == 0 {
		return fmt.Errorf("sim: no workflow models")
	}
	if len(p.Replicas) != p.Env.K() {
		return fmt.Errorf("sim: %d replication degrees for %d server types", len(p.Replicas), p.Env.K())
	}
	if !(p.Horizon > 0) {
		return fmt.Errorf("sim: horizon %v must be positive", p.Horizon)
	}
	if p.Warmup < 0 || p.Warmup >= p.Horizon {
		return fmt.Errorf("sim: warmup %v must be in [0, horizon)", p.Warmup)
	}
	if p.ServiceDists != nil && len(p.ServiceDists) != p.Env.K() {
		return fmt.Errorf("sim: %d service distributions for %d server types", len(p.ServiceDists), p.Env.K())
	}
	if p.FailureDists != nil && len(p.FailureDists) != p.Env.K() {
		return fmt.Errorf("sim: %d failure distributions for %d server types", len(p.FailureDists), p.Env.K())
	}
	if p.RepairDists != nil && len(p.RepairDists) != p.Env.K() {
		return fmt.Errorf("sim: %d repair distributions for %d server types", len(p.RepairDists), p.Env.K())
	}
	if len(p.Colocated) > 0 && p.EnableFailures {
		return fmt.Errorf("sim: co-location with failures is not supported (a shared computer's failure semantics are ambiguous across types)")
	}
	seen := map[int]bool{}
	for _, g := range p.Colocated {
		for _, x := range g {
			if x < 0 || x >= p.Env.K() {
				return fmt.Errorf("sim: co-location group references unknown server type %d", x)
			}
			if seen[x] {
				return fmt.Errorf("sim: server type %d appears in more than one co-location group", x)
			}
			seen[x] = true
		}
		for _, x := range g[1:] {
			if p.Replicas[x] != p.Replicas[g[0]] {
				return fmt.Errorf("sim: co-located types %d and %d have different replica counts", g[0], x)
			}
		}
	}
	for _, m := range p.Models {
		if m.Workflow == nil || m.Workflow.Chart == nil {
			return fmt.Errorf("sim: model without workflow chart")
		}
	}
	return nil
}

// Moments summarizes a tally for reporting.
type Moments struct {
	N            uint64
	Mean         float64
	SecondMoment float64
	StdErr       float64
	Min, Max     float64
}

func momentsOf(t *des.Tally) Moments {
	return Moments{
		N: t.N(), Mean: t.Mean(), SecondMoment: t.SecondMoment(), StdErr: t.StdErr(),
		Min: t.Min(), Max: t.Max(),
	}
}

// Result reports the measurements of one run.
type Result struct {
	// Waiting[x] summarizes observed request waiting times at type x.
	Waiting []Moments
	// WaitingP95[x] is the empirical 95th-percentile waiting time at
	// type x (reservoir-sampled), the tail-latency view the mean-value
	// models don't give.
	WaitingP95 []float64
	// Utilization[x] is the observed mean fraction of busy servers of
	// type x (averaged over configured replicas).
	Utilization []float64
	// Unavailability is the observed fraction of time some server type
	// had no replica up (only meaningful with EnableFailures).
	Unavailability float64
	// Turnaround[i] summarizes the turnaround of workflow i's
	// completed instances.
	Turnaround []Moments
	// WorkflowWaiting[i] summarizes the per-request queueing delays of
	// workflow i's requests across all server types, the observable
	// behind the analytic per-workflow delay decomposition
	// (perf.Report.WorkflowDelay).
	WorkflowWaiting []Moments
	// Started and Completed count workflow instances per model after
	// warmup.
	Started, Completed []uint64
	// RequestsServed counts served requests per type after warmup.
	RequestsServed []uint64
	// Events is the number of simulation events fired.
	Events uint64
}

type request struct {
	typeIdx int
	wfIdx   int
	arrived float64
	// inst and activity attribute the request on the trail; only chart
	// plans set them.
	inst     uint64
	activity string
}

type server struct {
	pool  *pool
	id    int
	up    bool
	busy  bool
	queue []request
	head  int
	// svcEvent is the pending service-completion event, cancelled on
	// failure.
	svcEvent *des.Event
	current  request
	// The server's event callbacks, bound once.
	complete, fail, repair func()
}

func (s *server) pending() int { return len(s.queue) - s.head }

func (s *server) push(r request) { s.queue = append(s.queue, r) }

func (s *server) popAll() []request {
	out := append([]request(nil), s.queue[s.head:]...)
	s.queue = s.queue[:0]
	s.head = 0
	return out
}

func (s *server) pop() (request, bool) {
	if s.head >= len(s.queue) {
		return request{}, false
	}
	r := s.queue[s.head]
	s.head++
	if s.head > 1024 && s.head*2 > len(s.queue) {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
	return r, true
}

type pool struct {
	typeIdx int
	servers []*server
	rr      int
	upCount int
	pending []request // requests arriving while every server is down
	// central is the shared FCFS queue used by the SharedQueue policy.
	central []request
	cHead   int
	busyAvg des.TimeWeighted
	waiting des.Tally
	waitQ   *des.Reservoir
	served  uint64
	svcDist dist.Distribution
	busyNow int
}

func (pl *pool) pushCentral(r request) { pl.central = append(pl.central, r) }

func (pl *pool) popCentral() (request, bool) {
	if pl.cHead >= len(pl.central) {
		return request{}, false
	}
	r := pl.central[pl.cHead]
	pl.cHead++
	if pl.cHead > 1024 && pl.cHead*2 > len(pl.central) {
		pl.central = append(pl.central[:0], pl.central[pl.cHead:]...)
		pl.cHead = 0
	}
	return r, true
}

// idleUpServer returns an up, non-busy replica, or nil.
func (pl *pool) idleUpServer() *server {
	for _, sv := range pl.servers {
		if sv.up && !sv.busy {
			return sv
		}
	}
	return nil
}

type runner struct {
	p     Params
	sim   *des.Simulator
	rng   *dist.RNG
	pools []*pool
	// station[x] is the pool index whose servers serve type x's
	// requests: x itself, or the first member of x's co-location group.
	station  []int
	svcDists []dist.Distribution
	downAvg  des.TimeWeighted

	started    []uint64
	completed  []uint64
	turnaround []des.Tally
	wfWaiting  []des.Tally
	warm       bool

	// Trail recording (nil when Params.Trail is unset); workflows[i]
	// names model i's instances on it.
	trail     *audit.Trail
	instSeq   uint64
	workflows []string

	// plans[i] is the plan model i's instances walk (concurrent.go);
	// idle holds finished tokens for reuse.
	plans []*chartPlan
	idle  []*token

	// dispatches[i][x] sends a request of model i to type x, bound once.
	dispatches [][]func()
}

// Run executes one simulation and returns its measurements.
func Run(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.MaxEvents == 0 {
		p.MaxEvents = 50_000_000
	}
	models := make([]*spec.Model, len(p.Models)) // the walk draws exponential residences
	for i, m := range p.Models {
		models[i] = spec.Expand(m)
	}
	p.Models = models
	r := &runner{
		p:          p,
		sim:        des.New(),
		rng:        dist.NewRNG(p.Seed),
		started:    make([]uint64, len(p.Models)),
		completed:  make([]uint64, len(p.Models)),
		turnaround: make([]des.Tally, len(p.Models)),
		wfWaiting:  make([]des.Tally, len(p.Models)),
	}
	if p.Trail != nil {
		r.trail = p.Trail
		r.workflows = make([]string, len(p.Models))
		for i, m := range p.Models {
			if r.workflows[i] = m.Workflow.Name; r.workflows[i] == "" {
				r.workflows[i] = m.Workflow.Chart.Name
			}
		}
	}
	if err := r.buildPlans(); err != nil {
		return nil, err
	}

	// Resolve co-location: requests of every group member run on the
	// group's first type's servers.
	r.station = make([]int, p.Env.K())
	for x := range r.station {
		r.station[x] = x
	}
	for _, g := range p.Colocated {
		for _, x := range g {
			r.station[x] = g[0]
		}
	}

	// Build server pools.
	r.svcDists = make([]dist.Distribution, p.Env.K())
	for x := 0; x < p.Env.K(); x++ {
		st := p.Env.Type(x)
		var d dist.Distribution
		if p.ServiceDists != nil && p.ServiceDists[x] != nil {
			d = p.ServiceDists[x]
		} else {
			d = dist.ExponentialFromMean(st.MeanService)
		}
		r.svcDists[x] = d
		pl := &pool{typeIdx: x, svcDist: d, waitQ: des.NewReservoir(8192, p.Seed+uint64(x)+1)}
		if r.station[x] == x {
			for i := 0; i < p.Replicas[x]; i++ {
				sv := &server{pool: pl, id: i, up: true}
				sv.complete = func() { r.endService(sv) }
				sv.fail = func() { r.fail(sv) }
				sv.repair = func() { r.repair(sv) }
				pl.servers = append(pl.servers, sv)
			}
		}
		pl.upCount = len(pl.servers)
		pl.busyAvg.Set(0, 0)
		r.pools = append(r.pools, pl)
	}
	// A type with workload but no replicas can never serve.
	for i, m := range p.Models {
		req := m.ExpectedRequests()
		for x, v := range req {
			if v > 0 && p.Replicas[x] == 0 {
				return nil, fmt.Errorf("sim: workflow %d sends load to type %d which has zero replicas", i, x)
			}
		}
	}
	r.downAvg.Set(0, boolTo01(r.systemDown()))

	// Failure processes.
	if p.EnableFailures {
		for _, pl := range r.pools {
			st := p.Env.Type(pl.typeIdx)
			if st.FailureRate <= 0 {
				continue
			}
			for _, sv := range pl.servers {
				r.scheduleFailure(sv, st.FailureRate)
			}
		}
	}

	// Workflow arrival processes.
	r.dispatches = make([][]func(), len(p.Models))
	for i, m := range p.Models {
		r.dispatches[i] = make([]func(), len(r.pools))
		for x := range r.pools {
			r.dispatches[i][x] = func() { r.dispatch(request{typeIdx: x, wfIdx: i}) }
		}
		if rate := m.Workflow.ArrivalRate; rate > 0 {
			var arrive func()
			arrive = func() {
				r.started[i]++
				r.start(i)
				r.sim.After(r.rng.Exp(rate), arrive)
			}
			r.sim.After(r.rng.Exp(rate), arrive)
		}
	}

	// Warmup boundary: reset collectors.
	r.sim.At(p.Warmup, func() {
		r.warm = true
		now := r.sim.Now()
		for _, pl := range r.pools {
			pl.waiting.Reset()
			pl.waitQ.Reset()
			pl.served = 0
			pl.busyAvg.ResetAt(now)
		}
		r.downAvg.ResetAt(now)
		for i := range r.turnaround {
			r.turnaround[i].Reset()
			r.wfWaiting[i].Reset()
			r.started[i] = 0
			r.completed[i] = 0
		}
	})

	if !r.sim.RunUntilCapped(p.Horizon, p.MaxEvents) {
		return nil, fmt.Errorf("sim: event budget %d exhausted at t=%v", p.MaxEvents, r.sim.Now())
	}

	res := &Result{
		Waiting:        make([]Moments, len(r.pools)),
		Utilization:    make([]float64, len(r.pools)),
		RequestsServed: make([]uint64, len(r.pools)),
		Started:        r.started,
		Completed:      r.completed,
		Events:         r.sim.Fired(),
	}
	res.WaitingP95 = make([]float64, len(r.pools))
	for x, pl := range r.pools {
		res.Waiting[x] = momentsOf(&pl.waiting)
		res.WaitingP95[x] = pl.waitQ.Quantile(0.95)
		station := r.pools[r.station[x]]
		if n := len(station.servers); n > 0 {
			res.Utilization[x] = station.busyAvg.Average(p.Horizon) / float64(n)
		}
		res.RequestsServed[x] = pl.served
	}
	if down := r.downAvg.Average(p.Horizon); !math.IsNaN(down) {
		res.Unavailability = down
	}
	for i := range r.turnaround {
		res.Turnaround = append(res.Turnaround, momentsOf(&r.turnaround[i]))
		res.WorkflowWaiting = append(res.WorkflowWaiting, momentsOf(&r.wfWaiting[i]))
	}
	return res, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (r *runner) systemDown() bool {
	for _, pl := range r.pools {
		if len(pl.servers) > 0 && pl.upCount == 0 {
			return true
		}
	}
	return false
}

func (r *runner) noteAvailability() {
	r.downAvg.Set(r.sim.Now(), boolTo01(r.systemDown()))
}

// dispatch routes a new service request to an up server of the type,
// round-robin, or parks it while the whole type is down.
func (r *runner) dispatch(req request) {
	pl := r.pools[r.station[req.typeIdx]]
	req.arrived = r.sim.Now()
	if r.p.Dispatch == SharedQueue {
		pl.pushCentral(req)
		if sv := pl.idleUpServer(); sv != nil {
			r.beginService(sv)
		}
		return
	}
	sv := r.nextUpServer(pl)
	if sv == nil {
		pl.pending = append(pl.pending, req)
		return
	}
	sv.push(req)
	if !sv.busy && sv.up {
		r.beginService(sv)
	}
}

func (r *runner) nextUpServer(pl *pool) *server {
	n := len(pl.servers)
	if n == 0 || pl.upCount == 0 {
		return nil
	}
	if r.p.Dispatch == Random {
		// Pick uniformly among up servers.
		pick := r.rng.Intn(pl.upCount)
		for _, sv := range pl.servers {
			if sv.up {
				if pick == 0 {
					return sv
				}
				pick--
			}
		}
		return nil
	}
	for probe := 0; probe < n; probe++ {
		sv := pl.servers[pl.rr%n]
		pl.rr++
		if sv.up {
			return sv
		}
	}
	return nil
}

func (r *runner) beginService(sv *server) {
	req, ok := sv.pop()
	if !ok && r.p.Dispatch == SharedQueue {
		req, ok = sv.pool.popCentral()
	}
	if !ok {
		return
	}
	pl := sv.pool
	typed := r.pools[req.typeIdx]
	sv.busy = true
	sv.current = req
	pl.busyNow++
	pl.busyAvg.Set(r.sim.Now(), float64(pl.busyNow))
	w := r.sim.Now() - req.arrived
	if r.warm {
		typed.waiting.Add(w)
		typed.waitQ.Add(w)
		r.wfWaiting[req.wfIdx].Add(w)
	}
	svcTime := r.svcDists[req.typeIdx].Sample(r.rng)
	if r.trail != nil {
		r.trail.Append(audit.Record{
			Kind: audit.ServiceRequest, Time: r.sim.Now(),
			Workflow: r.workflows[req.wfIdx], Instance: req.inst, Activity: req.activity,
			ServerType: r.p.Env.Type(req.typeIdx).Name, Server: sv.id,
			Waiting: w, Service: svcTime,
		})
	}
	sv.svcEvent = r.sim.Schedule(svcTime, sv.complete)
}

// endService completes the request the server is serving.
func (r *runner) endService(sv *server) {
	pl := sv.pool
	sv.svcEvent = nil
	sv.busy = false
	pl.busyNow--
	pl.busyAvg.Set(r.sim.Now(), float64(pl.busyNow))
	if r.warm {
		r.pools[sv.current.typeIdx].served++
	}
	if sv.up {
		r.beginService(sv)
	}
}

// scheduleFailure arms the next failure of a server.
func (r *runner) scheduleFailure(sv *server, lambda float64) {
	ttf := r.rng.Exp(lambda)
	if d := r.distFor(r.p.FailureDists, sv.pool.typeIdx); d != nil {
		ttf = d.Sample(r.rng)
	}
	r.sim.After(ttf, sv.fail)
}

// distFor returns the per-type override distribution, if any.
func (r *runner) distFor(dists []dist.Distribution, typeIdx int) dist.Distribution {
	if dists == nil || typeIdx >= len(dists) {
		return nil
	}
	return dists[typeIdx]
}

func (r *runner) fail(sv *server) {
	pl := sv.pool
	st := r.p.Env.Type(pl.typeIdx)
	sv.up = false
	pl.upCount--
	r.noteAvailability()

	// Abort the in-progress request and recover everything queued; the
	// failover backup re-executes the interrupted request from scratch.
	var recovered []request
	if sv.busy {
		r.sim.Cancel(sv.svcEvent)
		sv.svcEvent = nil
		sv.busy = false
		pl.busyNow--
		pl.busyAvg.Set(r.sim.Now(), float64(pl.busyNow))
		recovered = append(recovered, sv.current)
	}
	recovered = append(recovered, sv.popAll()...)
	if r.p.Dispatch == SharedQueue {
		for _, req := range recovered {
			pl.pushCentral(req)
		}
		for range recovered {
			peer := pl.idleUpServer()
			if peer == nil {
				break
			}
			r.beginService(peer)
		}
	} else {
		for _, req := range recovered {
			if peer := r.nextUpServer(pl); peer != nil {
				peer.push(req)
				if !peer.busy {
					r.beginService(peer)
				}
			} else {
				pl.pending = append(pl.pending, req)
			}
		}
	}

	// Repair, then the next failure cycle.
	ttr := r.rng.Exp(st.RepairRate)
	if d := r.distFor(r.p.RepairDists, pl.typeIdx); d != nil {
		ttr = d.Sample(r.rng)
	}
	r.sim.After(ttr, sv.repair)
}

// repair brings a failed server back and arms its next failure.
func (r *runner) repair(sv *server) {
	pl := sv.pool
	sv.up = true
	pl.upCount++
	r.noteAvailability()
	// Adopt requests parked while the whole type was down.
	parked := pl.pending
	pl.pending = nil
	for _, req := range parked {
		sv.push(req)
	}
	if !sv.busy {
		r.beginService(sv)
	}
	r.scheduleFailure(sv, r.p.Env.Type(pl.typeIdx).FailureRate)
}
