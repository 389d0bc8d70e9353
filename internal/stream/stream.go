// Package stream is the estimation half of the paper's calibration loop
// (Sections 3.2 and 7.1), and the only code that interprets audit
// records: it maintains the calibrate.Estimates incrementally, one
// audit.Record at a time, so a long-running advisory service can ingest
// a live event feed without ever re-reading or re-sorting history, and
// a complete trail is just the same fold run to the end (FromTrail). The
// estimators are concurrency-safe and allocation-conscious: per-event
// work is map lookups and running-mean updates, no sorting, no copying.
// A drift detector (drift.go) compares the running estimates against
// the parameters baked into a built model and scores the relative
// change, the trigger for invalidating warm model caches.
package stream

import (
	"maps"
	"sync"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/wfmserr"
)

// Options tunes an Estimator.
type Options struct {
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
	service, waiting calibrate.MomentPair
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

	transitions map[calibrate.TransitionKey]uint64
	departures  map[[2]string]uint64
	residence   map[[2]string]*calibrate.MomentPair
	activities  map[string]*calibrate.MomentPair
	servers     map[string]*serverMoments
	turnarounds map[string]*calibrate.MomentPair
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
		transitions:  map[calibrate.TransitionKey]uint64{},
		departures:   map[[2]string]uint64{},
		residence:    map[[2]string]*calibrate.MomentPair{},
		activities:   map[string]*calibrate.MomentPair{},
		servers:      map[string]*serverMoments{},
		turnarounds:  map[string]*calibrate.MomentPair{},
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
				mp = &calibrate.MomentPair{}
				e.turnarounds[wf] = mp
			}
			mp.Add(r.Time - t0)
		}
		e.pruneInstanceLocked(r.Instance)
	case audit.StateEntered:
		key := instChart{r.Instance, r.Chart}
		e.noteChartLocked(r.Instance, r.Chart)
		f := e.flows[key]
		if f.hasLeft {
			e.transitions[calibrate.TransitionKey{Chart: r.Chart, From: f.lastLeft, To: r.State}]++
			e.departures[[2]string{r.Chart, f.lastLeft}]++
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
				mp = &calibrate.MomentPair{}
				e.residence[sk] = mp
			}
			mp.Add(r.Time - f.enteredAt)
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
				mp = &calibrate.MomentPair{}
				e.activities[r.Activity] = mp
			}
			mp.Add(r.Time - starts[0])
			e.actStart[k] = starts[1:]
		}
	case audit.ServiceRequest:
		sm := e.servers[r.ServerType]
		if sm == nil {
			sm = &serverMoments{}
			e.servers[r.ServerType] = sm
		}
		sm.service.Add(r.Service)
		sm.waiting.Add(r.Waiting)
	}
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

// clonePairs copies each pair: the estimator keeps folding into its own.
func clonePairs[K comparable](src map[K]*calibrate.MomentPair) map[K]*calibrate.MomentPair {
	out := make(map[K]*calibrate.MomentPair, len(src))
	for k, m := range src {
		mp := *m
		out[k] = &mp
	}
	return out
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
		TransitionCounts:  maps.Clone(e.transitions),
		Departures:        maps.Clone(e.departures),
		Residence:         clonePairs(e.residence),
		ActivityDurations: clonePairs(e.activities),
		ServiceMoments:    make(map[string]*calibrate.MomentPair, len(e.servers)),
		WaitingMoments:    make(map[string]*calibrate.MomentPair, len(e.servers)),
		Turnarounds:       clonePairs(e.turnarounds),
		ArrivalRates:      make(map[string]float64, len(e.starts)),
		Starts:            make(map[string]uint64, len(e.starts)),
		Window:            e.last - e.first,
	}
	for k, sm := range e.servers {
		service, waiting := sm.service, sm.waiting
		out.ServiceMoments[k] = &service
		out.WaitingMoments[k] = &waiting
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
// folded through an estimator whose in-flight bound is the trail
// length, so no instance is ever dropped however many are open at once.
// An empty trail returns Snapshot's typed invalid_model error.
func FromTrail(trail *audit.Trail) (*calibrate.Estimates, error) {
	recs := trail.Records()
	e := NewEstimator(Options{MaxInFlight: len(recs)})
	e.ObserveBatch(recs)
	return e.Snapshot()
}
