// Package stream is the estimation half of the paper's calibration loop
// (Sections 3.2 and 7.1), and the only code that interprets audit
// records: it maintains the calibrate.Estimates incrementally, one
// audit.Record at a time, so a long-running advisory service can ingest
// a live event feed without ever re-reading or re-sorting history, and
// a complete trail is just the same fold run to the end (FromTrail). The
// estimators are concurrency-safe and allocation-conscious: an event
// costs one instance lookup, a scan of that instance's few charts or
// activities, one map update and a running-mean update; nothing sorts.
// A drift detector (drift.go) compares the running estimates against
// the parameters baked into a built model and scores the relative
// change, the trigger for invalidating warm model caches.
package stream

import (
	"maps"
	"slices"
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

// chartFlow is where one instance stands in chart. With only chart set,
// the instance has neither entered nor left a state there.
type chartFlow struct {
	chart string
	// state was entered at enteredAt and not left since (inState).
	state     string
	enteredAt float64
	inState   bool
	// lastLeft is the state left most recently, awaiting the entry that
	// completes the transition (hasLeft).
	lastLeft string
	hasLeft  bool
}

// instState is one instance's in-flight state: its start if tracked
// (within MaxInFlight), where it stands in each chart it touched, and
// the activities it started and has not completed, oldest first.
type instState struct {
	start    float64
	workflow string
	tracked  bool
	charts   []chartFlow
	acts     []actStart
}

type actStart struct {
	activity string
	at       float64
}

// flow returns where the instance stands in chart, adding the chart.
func (st *instState) flow(chart string) *chartFlow {
	for i := range st.charts {
		if st.charts[i].chart == chart {
			return &st.charts[i]
		}
	}
	st.charts = append(st.charts, chartFlow{chart: chart})
	return &st.charts[len(st.charts)-1]
}

// serverMoments are one server type's service-request moments, kept in
// one map entry so a service record costs one lookup.
type serverMoments struct {
	name             string
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

	// The first server types seen: a service request's type is looked
	// for here before the map is hashed.
	known []*serverMoments

	// In-flight instance state, deleted on completion so a bounded
	// instance population keeps memory bounded no matter how long the
	// stream runs; tracked counts the entries with a tracked start. A
	// deleted entry goes to free, to be reused with its slices' room.
	insts   map[uint64]*instState
	free    []*instState
	tracked int

	events      uint64
	dropped     uint64
	hasSpan     bool
	first, last float64
}

// NewEstimator returns an empty estimator.
func NewEstimator(opts Options) *Estimator {
	return &Estimator{
		opts:        opts.withDefaults(),
		transitions: map[calibrate.TransitionKey]uint64{},
		departures:  map[[2]string]uint64{},
		residence:   map[[2]string]*calibrate.MomentPair{},
		activities:  map[string]*calibrate.MomentPair{},
		servers:     map[string]*serverMoments{},
		turnarounds: map[string]*calibrate.MomentPair{},
		starts:      map[string]*arrivalTrack{},
		insts:       map[uint64]*instState{},
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
	return e.tracked
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
		a := entry(e.starts, r.Workflow)
		if a.count == 0 || r.Time < a.first {
			a.first = r.Time
		}
		if r.Time > a.last {
			a.last = r.Time
		}
		a.count++
		if e.tracked >= e.opts.MaxInFlight {
			e.dropped++
			return
		}
		st := e.instLocked(r.Instance)
		if !st.tracked {
			st.tracked = true
			e.tracked++
		}
		st.start, st.workflow = r.Time, r.Workflow
	case audit.InstanceCompleted:
		st := e.insts[r.Instance]
		if st == nil {
			return
		}
		if st.tracked {
			wf := r.Workflow
			if wf == "" {
				wf = st.workflow
			}
			entry(e.turnarounds, wf).Add(r.Time - st.start)
			e.tracked--
		}
		delete(e.insts, r.Instance)
		*st = instState{charts: st.charts[:0], acts: st.acts[:0]}
		e.free = append(e.free, st)
	case audit.StateEntered:
		f := e.instLocked(r.Instance).flow(r.Chart)
		if f.hasLeft {
			e.transitions[calibrate.TransitionKey{Chart: r.Chart, From: f.lastLeft, To: r.State}]++
			e.departures[[2]string{r.Chart, f.lastLeft}]++
		}
		*f = chartFlow{chart: f.chart, state: r.State, enteredAt: r.Time, inState: true}
	case audit.StateLeft:
		f := e.instLocked(r.Instance).flow(r.Chart)
		if f.inState && f.state == r.State {
			entry(e.residence, [2]string{r.Chart, r.State}).Add(r.Time - f.enteredAt)
			f.inState = false
		}
		f.lastLeft, f.hasLeft = r.State, true
	case audit.ActivityStarted:
		st := e.instLocked(r.Instance)
		st.acts = append(st.acts, actStart{r.Activity, r.Time})
	case audit.ActivityCompleted:
		if st := e.insts[r.Instance]; st != nil {
			if i := slices.IndexFunc(st.acts, func(a actStart) bool { return a.activity == r.Activity }); i >= 0 {
				entry(e.activities, r.Activity).Add(r.Time - st.acts[i].at)
				st.acts = slices.Delete(st.acts, i, i+1)
			}
		}
	case audit.ServiceRequest:
		sm := e.serverLocked(r.ServerType)
		sm.service.Add(r.Service)
		sm.waiting.Add(r.Waiting)
	}
}

// serverLocked returns the server type's moments, adding them.
func (e *Estimator) serverLocked(name string) *serverMoments {
	for _, sm := range e.known {
		if sm.name == name {
			return sm
		}
	}
	sm := entry(e.servers, name)
	if sm.name = name; len(e.known) < 8 {
		e.known = append(e.known, sm)
	}
	return sm
}

// instLocked returns the instance's in-flight state, adding an entry.
func (e *Estimator) instLocked(instance uint64) *instState {
	st := e.insts[instance]
	if st == nil {
		if n := len(e.free); n > 0 {
			st, e.free = e.free[n-1], e.free[:n-1]
		} else {
			st = &instState{}
		}
		e.insts[instance] = st
	}
	return st
}

// entry returns m[k], adding a zero value.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
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
