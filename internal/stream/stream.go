// Package stream is the estimation half of the paper's calibration loop
// (Sections 3.2 and 7.1), and the only code that interprets audit
// records: it maintains the calibrate.Estimates incrementally, one
// audit.Record at a time, so a long-running advisory service can ingest
// a live event feed without ever re-reading or re-sorting history, and
// a complete trail is just the same fold run to the end (FromTrail). The
// estimators are concurrency-safe, allocation-conscious (per-event work
// is map lookups and Welford updates — no sorting, no copying), and
// optionally apply exponential-decay windows so old behavior ages out.
// A drift detector (drift.go) compares the running estimates against
// the parameters baked into a built model and scores the relative
// change, the trigger for invalidating warm model caches.
package stream

import (
	"math"
	"sync"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/wfmserr"
)

// Options tunes an Estimator.
type Options struct {
	// HalfLife enables exponential decay: an observation's weight halves
	// every HalfLife trail-time units, so the estimates track the recent
	// past instead of the full history. Zero keeps all history: weights
	// are exact integer counts and moments plain running means.
	HalfLife float64
	// MaxInFlight bounds the per-instance bookkeeping (start times,
	// entered states, pending activity starts) kept for instances that
	// have not completed yet, protecting the ingestion path against
	// trails that start instances and never finish them. Instances
	// beyond the bound still contribute arrival statistics but their
	// turnarounds and in-flight state are dropped. Zero means 65536.
	MaxInFlight int
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 1 << 16
	}
	return o
}

// weightedCount is a decaying event counter. With no decay the weight is
// an exact integer count.
type weightedCount struct {
	w    float64
	last float64
}

// weightedMoments tracks a decaying sample mean and second raw moment.
// With no decay the arithmetic is exactly a running mean over integer
// counts (what calibrate.MomentPair carries).
type weightedMoments struct {
	w    float64
	mean float64
	m2   float64
	last float64
}

const ln2 = 0.6931471805599453

// decayFactor returns the weight multiplier for advancing from time
// last to now under the given half-life. Time going backwards (slightly
// out-of-order records) never inflates weights.
func decayFactor(halfLife, last, now float64) float64 {
	if halfLife <= 0 || now <= last {
		return 1
	}
	return math.Exp(-ln2 * (now - last) / halfLife)
}

func (c *weightedCount) observe(halfLife, now float64) {
	c.w = c.w*decayFactor(halfLife, c.last, now) + 1
	if now > c.last {
		c.last = now
	}
}

func (m *weightedMoments) observe(halfLife, now, x float64) {
	m.w *= decayFactor(halfLife, m.last, now)
	m.w++
	m.mean += (x - m.mean) / m.w
	m.m2 += (x*x - m.m2) / m.w
	if now > m.last {
		m.last = now
	}
}

// instChart keys per-instance, per-chart control-flow state.
type instChart struct {
	instance uint64
	chart    string
}

// chartFlow is where one instance stands in one chart. The zero value
// is an instance that has neither entered nor left a state there.
type chartFlow struct {
	// state was entered at enteredAt and not left since (inState).
	state     string
	enteredAt float64
	inState   bool
	// lastLeft is the state left most recently, awaiting the entry that
	// completes the transition (hasLeft).
	lastLeft string
	hasLeft  bool
}

// instAct keys per-instance pending activity starts.
type instAct struct {
	instance uint64
	activity string
}

// serverMoments are one server type's service-request moments, kept in
// one map entry so a service record costs one lookup.
type serverMoments struct {
	service, waiting weightedMoments
}

// arrivalTrack accumulates the per-workflow arrival statistics.
type arrivalTrack struct {
	count       uint64
	first, last float64
}

// Estimator consumes audit records one at a time and maintains the full
// calibrate.Estimates state incrementally. All methods are safe for
// concurrent use.
type Estimator struct {
	mu   sync.Mutex
	opts Options

	transitions map[calibrate.TransitionKey]*weightedCount
	departures  map[[2]string]*weightedCount
	residence   map[[2]string]*weightedMoments
	activities  map[string]*weightedMoments
	servers     map[string]*serverMoments
	turnarounds map[string]*weightedMoments
	starts      map[string]*arrivalTrack

	// In-flight instance state, pruned on completion so a bounded
	// instance population keeps memory bounded no matter how long the
	// stream runs.
	flows        map[instChart]chartFlow
	actStart     map[instAct][]float64
	instStart    map[uint64]float64
	instWorkflow map[uint64]string
	instCharts   map[uint64][]string
	instActs     map[uint64][]string

	events      uint64
	dropped     uint64
	hasSpan     bool
	first, last float64
}

// NewEstimator returns an empty estimator.
func NewEstimator(opts Options) *Estimator {
	return &Estimator{
		opts:         opts.withDefaults(),
		transitions:  map[calibrate.TransitionKey]*weightedCount{},
		departures:   map[[2]string]*weightedCount{},
		residence:    map[[2]string]*weightedMoments{},
		activities:   map[string]*weightedMoments{},
		servers:      map[string]*serverMoments{},
		turnarounds:  map[string]*weightedMoments{},
		starts:       map[string]*arrivalTrack{},
		flows:        map[instChart]chartFlow{},
		actStart:     map[instAct][]float64{},
		instStart:    map[uint64]float64{},
		instWorkflow: map[uint64]string{},
		instCharts:   map[uint64][]string{},
		instActs:     map[uint64][]string{},
	}
}

// ObserveBatch folds a batch of records into the estimates, in order,
// with one lock acquisition. It keeps no reference to recs.
func (e *Estimator) ObserveBatch(recs []audit.Record) {
	if len(recs) == 0 {
		return
	}
	e.mu.Lock()
	for i := range recs {
		e.observeLocked(&recs[i])
	}
	e.mu.Unlock()
}

// Events returns the number of records observed so far.
func (e *Estimator) Events() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events
}

// InFlight returns the number of started-but-not-completed instances
// currently tracked.
func (e *Estimator) InFlight() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.instStart)
}

// Dropped returns how many instance starts exceeded MaxInFlight and had
// their per-instance tracking skipped.
func (e *Estimator) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

func (e *Estimator) observeLocked(r *audit.Record) {
	e.events++
	if !e.hasSpan {
		e.first, e.last = r.Time, r.Time
		e.hasSpan = true
	}
	if r.Time < e.first {
		e.first = r.Time
	}
	if r.Time > e.last {
		e.last = r.Time
	}
	hl := e.opts.HalfLife
	switch r.Kind {
	case audit.InstanceStarted:
		a := e.starts[r.Workflow]
		if a == nil {
			a = &arrivalTrack{}
			e.starts[r.Workflow] = a
		}
		if a.count == 0 || r.Time < a.first {
			a.first = r.Time
		}
		if r.Time > a.last {
			a.last = r.Time
		}
		a.count++
		if len(e.instStart) >= e.opts.MaxInFlight {
			e.dropped++
			return
		}
		e.instStart[r.Instance] = r.Time
		e.instWorkflow[r.Instance] = r.Workflow
	case audit.InstanceCompleted:
		if t0, ok := e.instStart[r.Instance]; ok {
			wf := r.Workflow
			if wf == "" {
				wf = e.instWorkflow[r.Instance]
			}
			mp := e.turnarounds[wf]
			if mp == nil {
				mp = &weightedMoments{}
				e.turnarounds[wf] = mp
			}
			mp.observe(hl, r.Time, r.Time-t0)
		}
		e.pruneInstanceLocked(r.Instance)
	case audit.StateEntered:
		key := instChart{r.Instance, r.Chart}
		e.noteChartLocked(r.Instance, r.Chart)
		f := e.flows[key]
		if f.hasLeft {
			counterFor(e.transitions, calibrate.TransitionKey{Chart: r.Chart, From: f.lastLeft, To: r.State}).observe(hl, r.Time)
			counterFor(e.departures, [2]string{r.Chart, f.lastLeft}).observe(hl, r.Time)
		}
		e.flows[key] = chartFlow{state: r.State, enteredAt: r.Time, inState: true}
	case audit.StateLeft:
		key := instChart{r.Instance, r.Chart}
		e.noteChartLocked(r.Instance, r.Chart)
		f := e.flows[key]
		if f.inState && f.state == r.State {
			sk := [2]string{r.Chart, r.State}
			mp := e.residence[sk]
			if mp == nil {
				mp = &weightedMoments{}
				e.residence[sk] = mp
			}
			mp.observe(hl, r.Time, r.Time-f.enteredAt)
			f.inState = false
		}
		f.lastLeft, f.hasLeft = r.State, true
		e.flows[key] = f
	case audit.ActivityStarted:
		k := instAct{r.Instance, r.Activity}
		if _, ok := e.actStart[k]; !ok {
			e.instActs[r.Instance] = append(e.instActs[r.Instance], r.Activity)
		}
		e.actStart[k] = append(e.actStart[k], r.Time)
	case audit.ActivityCompleted:
		k := instAct{r.Instance, r.Activity}
		if starts := e.actStart[k]; len(starts) > 0 {
			mp := e.activities[r.Activity]
			if mp == nil {
				mp = &weightedMoments{}
				e.activities[r.Activity] = mp
			}
			mp.observe(hl, r.Time, r.Time-starts[0])
			e.actStart[k] = starts[1:]
		}
	case audit.ServiceRequest:
		sm := e.servers[r.ServerType]
		if sm == nil {
			sm = &serverMoments{}
			e.servers[r.ServerType] = sm
		}
		sm.service.observe(hl, r.Time, r.Service)
		sm.waiting.observe(hl, r.Time, r.Waiting)
	}
}

// counterFor returns the key's counter, making it on first sight.
func counterFor[K comparable](m map[K]*weightedCount, k K) *weightedCount {
	c := m[k]
	if c == nil {
		c = &weightedCount{}
		m[k] = c
	}
	return c
}

// noteChartLocked remembers that the instance touched the chart, so its
// control-flow state can be pruned when the instance completes.
func (e *Estimator) noteChartLocked(instance uint64, chart string) {
	for _, c := range e.instCharts[instance] {
		if c == chart {
			return
		}
	}
	e.instCharts[instance] = append(e.instCharts[instance], chart)
}

// pruneInstanceLocked drops all in-flight state of a completed instance.
func (e *Estimator) pruneInstanceLocked(instance uint64) {
	for _, chart := range e.instCharts[instance] {
		delete(e.flows, instChart{instance, chart})
	}
	delete(e.instCharts, instance)
	for _, act := range e.instActs[instance] {
		delete(e.actStart, instAct{instance, act})
	}
	delete(e.instActs, instance)
	delete(e.instStart, instance)
	delete(e.instWorkflow, instance)
}

// roundWeight converts a decayed weight to the integral observation
// count calibrate.MomentPair carries. Without decay the weight is an
// exact integer already.
func roundWeight(w float64) uint64 {
	if w <= 0 {
		return 0
	}
	n := uint64(w + 0.5)
	if n == 0 {
		n = 1
	}
	return n
}

func momentsPair(m *weightedMoments) *calibrate.MomentPair {
	return &calibrate.MomentPair{N: roundWeight(m.w), Mean: m.mean, SecondMoment: m.m2}
}

// Snapshot materializes the running state as a calibrate.Estimates,
// ready for Estimates.ApplySystem / ApplyToWorkflow. An estimator that
// has seen no events returns a typed invalid_model error.
func (e *Estimator) Snapshot() (*calibrate.Estimates, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.events == 0 {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "stream", "no events ingested: nothing to estimate from")
	}
	out := &calibrate.Estimates{
		TransitionCounts:  make(map[calibrate.TransitionKey]uint64, len(e.transitions)),
		Departures:        make(map[[2]string]uint64, len(e.departures)),
		Residence:         make(map[[2]string]*calibrate.MomentPair, len(e.residence)),
		ActivityDurations: make(map[string]*calibrate.MomentPair, len(e.activities)),
		ServiceMoments:    make(map[string]*calibrate.MomentPair, len(e.servers)),
		WaitingMoments:    make(map[string]*calibrate.MomentPair, len(e.servers)),
		Turnarounds:       make(map[string]*calibrate.MomentPair, len(e.turnarounds)),
		ArrivalRates:      make(map[string]float64, len(e.starts)),
		Starts:            make(map[string]uint64, len(e.starts)),
		Window:            e.last - e.first,
	}
	for k, c := range e.transitions {
		out.TransitionCounts[k] = roundWeight(c.w)
	}
	for k, c := range e.departures {
		out.Departures[k] = roundWeight(c.w)
	}
	for k, m := range e.residence {
		out.Residence[k] = momentsPair(m)
	}
	for k, m := range e.activities {
		out.ActivityDurations[k] = momentsPair(m)
	}
	for k, sm := range e.servers {
		out.ServiceMoments[k] = momentsPair(&sm.service)
		out.WaitingMoments[k] = momentsPair(&sm.waiting)
	}
	for k, m := range e.turnarounds {
		out.Turnarounds[k] = momentsPair(m)
	}
	// Arrival rate: (n−1) inter-arrival gaps over the start-to-start
	// span. Dividing n by the full trail window would bias the estimate
	// low by the drain tail after the last arrival.
	for wf, a := range e.starts {
		out.Starts[wf] = a.count
		if span := a.last - a.first; a.count >= 2 && span > 0 {
			out.ArrivalRates[wf] = float64(a.count-1) / span
		}
	}
	return out, nil
}

// FromTrail estimates from a complete trail: its records, in time order,
// folded through a no-decay estimator whose in-flight bound is the trail
// length, so no instance is ever dropped however many are open at once.
// An empty trail returns Snapshot's typed invalid_model error.
func FromTrail(trail *audit.Trail) (*calibrate.Estimates, error) {
	recs := trail.Records()
	e := NewEstimator(Options{MaxInFlight: len(recs)})
	e.ObserveBatch(recs)
	return e.Snapshot()
}
