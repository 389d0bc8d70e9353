// Package perf implements the server-performance model of Section 4: the
// aggregation of per-workflow loads into server-type request arrival
// rates, the maximum sustainable throughput, and the M/G/1 waiting-time
// analysis that is the paper's primary responsiveness metric.
package perf

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"performa/internal/linalg"
	"performa/internal/spec"
	"performa/internal/wfmserr"
)

// Config is a system configuration: the vector of replication degrees
// (Y_1, ..., Y_k), one per server type (Section 1).
type Config struct {
	// Replicas[x] is Y_x, the number of servers of type x.
	Replicas []int
}

// Clone returns an independent copy of the configuration.
func (c Config) Clone() Config {
	return Config{Replicas: append([]int(nil), c.Replicas...)}
}

// TotalServers returns the configuration cost in the paper's sense: the
// total number of servers.
func (c Config) TotalServers() int {
	total := 0
	for _, y := range c.Replicas {
		total += y
	}
	return total
}

// String renders the configuration as its replication vector.
func (c Config) String() string {
	s := "("
	for i, y := range c.Replicas {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", y)
	}
	return s + ")"
}

// ParseConfig parses a command-line replication vector such as "2,2,3"
// for k server types.
func ParseConfig(s string, k int) (Config, error) {
	parts := strings.Split(s, ",")
	if len(parts) != k {
		return Config{}, fmt.Errorf("configuration %q has %d entries for %d server types", s, len(parts), k)
	}
	replicas := make([]int, k)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return Config{}, fmt.Errorf("bad replication degree %q", p)
		}
		replicas[i] = v
	}
	return Config{Replicas: replicas}, nil
}

func (c Config) validate(k int) error {
	if len(c.Replicas) != k {
		return fmt.Errorf("perf: configuration has %d replication degrees for %d server types", len(c.Replicas), k)
	}
	for x, y := range c.Replicas {
		if y < 0 {
			return wfmserr.New(wfmserr.CodeInvalidModel, "perf", "negative replication degree Y[%d] = %d", x, y)
		}
	}
	return nil
}

// validateGroups checks co-location groups against the configuration:
// known types, each in at most one group, equal replication degrees
// within a group.
func (c Config) validateGroups(groups [][]int) error {
	k := len(c.Replicas)
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, x := range g {
			if x < 0 || x >= k {
				return fmt.Errorf("perf: co-location group references unknown server type %d", x)
			}
			if seen[x] {
				return fmt.Errorf("perf: server type %d appears in more than one co-location group", x)
			}
			seen[x] = true
		}
		for _, x := range g[1:] {
			if c.Replicas[x] != c.Replicas[g[0]] {
				return fmt.Errorf("perf: co-located types %d and %d have different replication degrees %d and %d",
					g[0], x, c.Replicas[g[0]], c.Replicas[x])
			}
		}
	}
	return nil
}

// Analysis aggregates the per-workflow models over a workflow mix and
// evaluates configurations against them.
type Analysis struct {
	env    *spec.Environment
	models []*spec.Model
	// arrivalRates[x] is l_x = Σ_t ξ_t · r_{x,t} (Section 4.3).
	arrivalRates linalg.Vector
	// requests[i] is r_{·,i}, the per-workflow expected request counts,
	// computed once at construction so per-candidate evaluations don't
	// re-clone them (Model.ExpectedRequests copies on every call).
	requests [][]float64
	// totalWorkflowRate is Σ_t ξ_t.
	totalWorkflowRate float64
}

// NewAnalysis builds an analysis over the given workflow models, which
// must all have been built against env and carry their arrival rates.
func NewAnalysis(env *spec.Environment, models []*spec.Model) (*Analysis, error) {
	if env == nil {
		return nil, fmt.Errorf("perf: nil environment")
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("perf: analysis needs at least one workflow model")
	}
	a := &Analysis{env: env, models: models, arrivalRates: linalg.NewVector(env.K())}
	for _, m := range models {
		if m.Workflow == nil {
			return nil, fmt.Errorf("perf: model without workflow (subworkflow models cannot be aggregated directly)")
		}
		r := m.ExpectedRequests()
		if len(r) != env.K() {
			return nil, fmt.Errorf("perf: workflow %q was built against a different environment (%d server types, want %d)",
				m.Workflow.Name, len(r), env.K())
		}
		xi := m.Workflow.ArrivalRate
		a.totalWorkflowRate += xi
		a.arrivalRates.AddScaled(xi, r)
		a.requests = append(a.requests, r)
	}
	return a, nil
}

// Env returns the environment the analysis was built against.
func (a *Analysis) Env() *spec.Environment { return a.env }

// Models returns the workflow models in the mix.
func (a *Analysis) Models() []*spec.Model { return a.models }

// TypeLoad returns l_x, the total request arrival rate at server type x
// over all workflow types (Section 4.3).
func (a *Analysis) TypeLoad(x int) float64 { return a.arrivalRates[x] }

// WorkflowRequests returns r_{·,i}, the expected per-type request counts
// of one instance of workflow i, computed once at construction. The
// returned slice is shared — callers must not modify it.
func (a *Analysis) WorkflowRequests(i int) []float64 { return a.requests[i] }

// Report is the performance assessment of one configuration.
type Report struct {
	// Config echoes the evaluated configuration.
	Config Config
	// TypeLoad[x] is l_x, the request arrival rate at server type x.
	TypeLoad []float64
	// ServerLoad[x] is l̃_x = l_x / Y_x, the arrival rate per replica.
	// For co-located types it is the merged per-computer rate.
	ServerLoad []float64
	// Utilization[x] is ρ_x. For co-located types it is the shared
	// computer's utilization.
	Utilization []float64
	// Waiting[x] is the mean waiting time w_x of service requests at
	// type x; +Inf when the type is saturated (ρ ≥ 1) and NaN-free.
	Waiting []float64
	// Bottleneck is the index of the server type that saturates first.
	Bottleneck int
	// ThroughputScale is the largest factor by which the whole arrival
	// mix could be scaled with every server type still sustaining its
	// load (ρ < 1 at the limit): min_x Y_x / (b_x · l_x).
	ThroughputScale float64
	// MaxWorkflowThroughput is the maximum sustainable throughput in
	// workflow instances per time unit: ThroughputScale · Σ_t ξ_t.
	MaxWorkflowThroughput float64
	// WorkflowDelay[i] is the expected total queueing delay accrued by
	// one instance of workflow i across all its service requests:
	// Σ_x r_{x,i} · w_x. It decomposes the server-centric waiting
	// times into a per-workflow burden.
	WorkflowDelay []float64
	// InflatedTurnaround[i] is R_i + WorkflowDelay[i]: the workflow
	// turnaround with queueing made explicit (the model's residence
	// times are queueing-free activity durations).
	InflatedTurnaround []float64
}

// Saturated reports whether any server type cannot sustain its load.
func (r *Report) Saturated() bool {
	for _, u := range r.Utilization {
		if u >= 1 {
			return true
		}
	}
	return false
}

// MaxWaiting returns the largest per-type waiting time, the scalar the
// configuration tool compares against its responsiveness goal.
func (r *Report) MaxWaiting() float64 {
	return linalg.Vector(r.Waiting).Max()
}

// Evaluate assesses the configuration: per-type loads, utilizations,
// M/G/1 waiting times, bottleneck, and maximum sustainable throughput.
// A zero replication degree for a type with positive load yields an
// infinite waiting time (the type is unavailable); this is exactly the
// degraded-mode semantics the performability model builds on.
func (a *Analysis) Evaluate(cfg Config) (*Report, error) {
	return a.evaluate(cfg, nil)
}

// EvaluateColocated is Evaluate with Section 4.4's generalized case:
// each group lists server types that run on the same computers. Types
// within one group must have equal replication degrees, and a type may
// appear in at most one group; a group's request streams are merged
// into one M/G/1 queue per computer, whose service time is the
// arrival-rate weighted mixture of the members'. Only the performance
// model knows co-location: a partially failed group has no shared queue
// in the paper's model, so performability and planning take the
// replication vector alone.
func (a *Analysis) EvaluateColocated(cfg Config, groups [][]int) (*Report, error) {
	return a.evaluate(cfg, groups)
}

// evaluate is the body of Evaluate (nil groups) and EvaluateColocated.
func (a *Analysis) evaluate(cfg Config, groups [][]int) (*Report, error) {
	k := a.env.K()
	if err := cfg.validate(k); err != nil {
		return nil, err
	}
	if err := cfg.validateGroups(groups); err != nil {
		return nil, err
	}
	rep := &Report{
		Config:      cfg.Clone(),
		TypeLoad:    a.arrivalRates.Clone(),
		ServerLoad:  make([]float64, k),
		Utilization: make([]float64, k),
		Waiting:     make([]float64, k),
		Bottleneck:  -1,
	}

	// Resolve each type to its queue: its own replicas, or the merged
	// co-located queue.
	group := make([]int, k) // group[x] = co-location group index, or -1
	for x := range group {
		group[x] = -1
	}
	for gi, g := range groups {
		for _, x := range g {
			group[x] = gi
		}
	}

	// Merged per-computer arrival rate and service moments per group.
	type queue struct {
		lambda float64 // per-computer request arrival rate
		b      float64 // merged mean service time
		b2     float64 // merged second moment
	}
	queues := make([]queue, len(groups))
	groupScale := make([]float64, len(groups))
	for gi, g := range groups {
		y := float64(cfg.Replicas[g[0]])
		var q queue
		var work float64 // Σ_x l_x · b_x, the group's total service demand
		for _, x := range g {
			lx := a.arrivalRates[x]
			work += lx * a.env.Type(x).MeanService
			if y > 0 {
				q.lambda += lx / y
			} else if lx > 0 {
				q.lambda = math.Inf(1)
			}
		}
		if work > 0 {
			groupScale[gi] = y / work
		} else {
			groupScale[gi] = math.Inf(1)
		}
		// The common service-time distribution is the arrival-rate
		// weighted mixture of the member types' distributions.
		var totalRate float64
		for _, x := range g {
			totalRate += a.arrivalRates[x]
		}
		if totalRate > 0 {
			for _, x := range g {
				wgt := a.arrivalRates[x] / totalRate
				st := a.env.Type(x)
				q.b += wgt * st.MeanService
				q.b2 += wgt * st.ServiceSecondMoment
			}
		}
		queues[gi] = q
	}

	minScale := math.Inf(1)
	for x := 0; x < k; x++ {
		st := a.env.Type(x)
		lx := a.arrivalRates[x]
		y := float64(cfg.Replicas[x])

		var lambda, b, b2 float64
		if gi := group[x]; gi >= 0 {
			lambda, b, b2 = queues[gi].lambda, queues[gi].b, queues[gi].b2
		} else {
			if y > 0 {
				lambda = lx / y
			} else if lx > 0 {
				lambda = math.Inf(1)
			}
			b, b2 = st.MeanService, st.ServiceSecondMoment
		}
		rep.ServerLoad[x] = lambda
		rho := lambda * b
		if math.IsNaN(rho) { // 0 * Inf: no load and no servers
			rho = 0
		}
		rep.Utilization[x] = rho
		rep.Waiting[x] = mg1Wait(lambda, b, b2)

		// Throughput scaling headroom of this type (or of its shared
		// computer for co-located types).
		scale := math.Inf(1)
		if gi := group[x]; gi >= 0 {
			scale = groupScale[gi]
		} else if lx > 0 {
			scale = y / (st.MeanService * lx)
		}
		if scale < minScale {
			minScale = scale
			rep.Bottleneck = x
		}
	}
	rep.ThroughputScale = minScale
	if math.IsInf(minScale, 1) {
		rep.MaxWorkflowThroughput = math.Inf(1)
	} else {
		rep.MaxWorkflowThroughput = minScale * a.totalWorkflowRate
	}

	// Per-workflow queueing burden.
	rep.WorkflowDelay = make([]float64, len(a.models))
	rep.InflatedTurnaround = make([]float64, len(a.models))
	for i, m := range a.models {
		delay := a.WorkflowDelay(i, rep.Waiting, nil)
		rep.WorkflowDelay[i] = delay
		rep.InflatedTurnaround[i] = m.Turnaround() + delay
	}
	return rep, nil
}

// WorkflowDelay returns Σ_x r_{x,i}·w_x, the expected queueing delay
// one instance of workflow i accrues under the waiting-time vector w.
// Types the workflow never calls are skipped, so a type it does not use
// adds nothing even when it waits +Inf (0·Inf would be NaN, which passes
// every goal comparison). When terms is non-nil, terms[x] receives the
// per-type contribution r_{x,i}·w_x (0 for a skipped type).
func (a *Analysis) WorkflowDelay(i int, w, terms []float64) float64 {
	var delay float64
	for x, r := range a.requests[i] {
		var c float64
		if r != 0 {
			c = r * w[x] // Inf propagates on saturation
			delay += c
		}
		if terms != nil {
			terms[x] = c
		}
	}
	return delay
}

// DegradedWaiting computes just the waiting-time vector w^X of a
// replication vector into dst, which is grown as needed and returned:
// LevelWaiting per type, the same arithmetic as Evaluate. The joint-enumeration
// oracle in internal/crossval sweeps degraded states through it.
func (a *Analysis) DegradedWaiting(replicas []int, dst []float64) ([]float64, error) {
	k := a.env.K()
	if len(replicas) != k {
		return nil, fmt.Errorf("perf: configuration has %d replication degrees for %d server types", len(replicas), k)
	}
	if cap(dst) < k {
		dst = make([]float64, k)
	}
	dst = dst[:k]
	for x := 0; x < k; x++ {
		if replicas[x] < 0 {
			return nil, wfmserr.New(wfmserr.CodeInvalidModel, "perf", "negative replication degree Y[%d] = %d", x, replicas[x])
		}
		dst[x] = a.LevelWaiting(x, replicas[x])
	}
	return dst, nil
}

// LevelWaiting returns w_x(j): the M/G/1 waiting time at server type x
// when j ≥ 0 of its replicas are available.
func (a *Analysis) LevelWaiting(x, j int) float64 {
	st := a.env.Type(x)
	return LevelWaiting(a.arrivalRates[x], j, st.MeanService, st.ServiceSecondMoment)
}

// LevelWaiting returns the M/G/1 waiting time of a server type with
// request arrival rate l and service moments b, b2 when j ≥ 0 of its
// replicas are available, each taking l / j of the load. It depends on
// no other type, which is what lets the performability model reduce W^Y
// type by type. A type with load and no replica waits +Inf; a type
// without load waits 0 at every level.
func LevelWaiting(l float64, j int, b, b2 float64) float64 {
	var lambda float64
	if j > 0 {
		lambda = l / float64(j)
	} else if l > 0 {
		lambda = math.Inf(1)
	}
	return mg1Wait(lambda, b, b2)
}

// mg1Wait returns the M/G/1 mean waiting time of Section 4.4:
// w = λ b² / (2 (1 - ρ)) with ρ = λ b, and +Inf at or beyond saturation.
func mg1Wait(lambda, b, b2 float64) float64 {
	if lambda == 0 {
		return 0
	}
	if math.IsInf(lambda, 1) {
		return math.Inf(1)
	}
	rho := lambda * b
	if rho >= 1 {
		return math.Inf(1)
	}
	return lambda * b2 / (2 * (1 - rho))
}

// WaitingCurve evaluates the M/G/1 waiting time of one server type at the
// given utilization levels, used by the benchmark harness to regenerate
// the hyperbolic w(ρ) shape.
func WaitingCurve(st spec.ServerType, utilizations []float64) []float64 {
	out := make([]float64, len(utilizations))
	for i, rho := range utilizations {
		lambda := rho / st.MeanService
		out[i] = mg1Wait(lambda, st.MeanService, st.ServiceSecondMoment)
	}
	return out
}
