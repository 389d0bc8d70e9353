// Package calibrate turns audit-trail estimates into model parameters:
// transition probabilities and state residence times (Section 3.2),
// activity durations, per-server-type service-time moments (Section 4.4),
// and workflow arrival rates. It is the calibration component of the
// configuration tool (Section 7.1): after the system has been operational
// for a while, intellectually estimated parameters are replaced by
// measured ones. The records themselves are folded into Estimates by
// package stream (one estimator for live feeds and complete trails
// alike); this package owns what the estimates mean for a model.
package calibrate

import (
	"errors"
	"fmt"
	"math"

	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
)

// MomentPair is a sample mean and second moment.
type MomentPair struct {
	N            uint64
	Mean         float64
	SecondMoment float64
}

// Add folds one sample into the running mean and second moment.
func (m *MomentPair) Add(x float64) {
	m.N++
	d := float64(m.N)
	m.Mean += (x - m.Mean) / d
	m.SecondMoment += (x*x - m.SecondMoment) / d
}

// Variance returns the (population) variance E[X²] − E[X]², clamped at
// zero: with a single sample — or duplicated observations — floating
// cancellation can leave the raw difference a hair negative, and a
// negative variance NaN-poisons every downstream square root.
func (m *MomentPair) Variance() float64 {
	v := m.SecondMoment - m.Mean*m.Mean
	if v < 0 || m.N < 2 {
		return 0
	}
	return v
}

// TransitionKey identifies a chart transition.
type TransitionKey struct {
	Chart    string
	From, To string
}

// Estimates holds every parameter estimated from a trail.
type Estimates struct {
	// TransitionCounts counts observed control-flow transitions.
	TransitionCounts map[TransitionKey]uint64
	// Departures counts observed departures per (chart, state).
	Departures map[[2]string]uint64
	// Residence holds per-(chart, state) residence-time moments.
	Residence map[[2]string]*MomentPair
	// ActivityDurations holds per-activity turnaround moments.
	ActivityDurations map[string]*MomentPair
	// ServiceMoments holds per-server-type service-time moments.
	ServiceMoments map[string]*MomentPair
	// WaitingMoments holds per-server-type request waiting moments,
	// the observable the model's predictions are compared against.
	WaitingMoments map[string]*MomentPair
	// Turnarounds holds per-workflow instance turnaround moments.
	Turnarounds map[string]*MomentPair
	// ArrivalRates estimates ξ_t per workflow type.
	ArrivalRates map[string]float64
	// Starts counts observed instance starts per workflow type — the
	// sample size behind ArrivalRates.
	Starts map[string]uint64
	// Window is the observation window (first to last record time).
	Window float64
}

// ErrTooFewObservations reports estimates drawn from fewer completed
// instances than the caller trusts.
var ErrTooFewObservations = errors.New("calibrate: too few observations")

// RequireCompleted rejects estimates backed by fewer than need completed
// instances (need <= 0 means 50) with ErrTooFewObservations:
// recalibrating from a handful of instances would thrash the model.
func (e *Estimates) RequireCompleted(need int) error {
	if need <= 0 {
		need = 50
	}
	var observed uint64
	for _, mp := range e.Turnarounds {
		observed += mp.N
	}
	if observed < uint64(need) {
		return fmt.Errorf("%w: %d completed instances, need %d", ErrTooFewObservations, observed, need)
	}
	return nil
}

// TransitionProb returns the estimated probability of the transition with
// optional Laplace smoothing over the state's fanout: (count + α) /
// (departures + α·fanout). The boolean reports whether any departure from
// the source state was observed.
func (e *Estimates) TransitionProb(chart, from, to string, fanout int, alpha float64) (float64, bool) {
	dep := e.Departures[[2]string{chart, from}]
	if dep == 0 && alpha == 0 {
		return 0, false
	}
	count := e.TransitionCounts[TransitionKey{chart, from, to}]
	return (float64(count) + alpha) / (float64(dep) + alpha*float64(fanout)), dep > 0
}

// Options tunes ApplyToWorkflow.
type Options struct {
	// Smoothing is the Laplace α added per outgoing transition when
	// re-estimating branch probabilities, keeping never-observed
	// branches possible. Zero keeps raw relative frequencies and fails
	// when a branch was never taken but a sibling was.
	Smoothing float64
	// MinObservations skips re-estimating a state's branching or an
	// activity's duration unless at least this many observations exist
	// (default 1).
	MinObservations uint64
}

func (o Options) withDefaults() Options {
	if o.MinObservations == 0 {
		o.MinObservations = 1
	}
	return o
}

// ApplyToWorkflow rewrites the workflow's transition probabilities and
// activity durations in place using the estimates, leaving parameters
// without sufficient observations untouched. Nested subcharts are
// processed recursively (they appear in the trail under their own chart
// names). The rewritten workflow is re-validated.
func (e *Estimates) ApplyToWorkflow(w *spec.Workflow, env *spec.Environment, opts Options) error {
	opts = opts.withDefaults()
	if err := e.applyChart(w, w.Chart, opts); err != nil {
		return err
	}
	for act, mp := range e.ActivityDurations {
		if mp.N < opts.MinObservations {
			continue
		}
		if prof, ok := w.Profiles[act]; ok {
			// A zero or non-finite measured duration cannot drive the
			// CTMC (residence rates are 1/H): reject it as a typed error
			// instead of letting NaN rates poison the model downstream.
			if !(mp.Mean > 0) || math.IsInf(mp.Mean, 0) {
				return wfmserr.New(wfmserr.CodeInvalidModel, "calibrate",
					"activity %q: measured mean duration %v from %d observations is not a positive finite time",
					act, mp.Mean, mp.N)
			}
			prof.MeanDuration = mp.Mean
			w.Profiles[act] = prof
		}
	}
	if err := w.Validate(env); err != nil {
		return wfmserr.Wrap(err, wfmserr.CodeInvalidModel, "calibrate",
			"workflow invalid after applying estimates (consider Smoothing > 0)")
	}
	return nil
}

func (e *Estimates) applyChart(w *spec.Workflow, chart *statechart.Chart, opts Options) error {
	// Re-estimate branch probabilities state by state: only states with
	// enough observed departures are touched, and all outgoing
	// transitions of such a state are rewritten together so they keep
	// summing to one.
	for state := range chart.States {
		out := chart.Outgoing(state)
		if len(out) == 0 {
			continue
		}
		dep := e.Departures[[2]string{chart.Name, state}]
		if dep < opts.MinObservations {
			continue
		}
		var sum float64
		for _, tr := range out {
			p, _ := e.TransitionProb(chart.Name, tr.From, tr.To, len(out), opts.Smoothing)
			tr.Prob = p
			sum += p
		}
		if !(sum > 0) || math.IsInf(sum, 0) {
			return wfmserr.New(wfmserr.CodeInvalidModel, "calibrate",
				"state %q of chart %q has departures but no usable branch estimates (sum %v)", state, chart.Name, sum)
		}
		for _, tr := range out {
			tr.Prob /= sum
		}
	}
	for _, s := range chart.States {
		for _, sub := range s.Subcharts {
			if err := e.applyChart(w, sub, opts); err != nil {
				return err
			}
		}
	}
	return nil
}

// ServerTypesWithMeasuredService returns a copy of the environment's
// server types with service-time moments replaced by measured ones where
// available. Degenerate measurements are never applied: a zero or
// non-finite mean (all-zero service durations in the trail) keeps the
// declared moment, and a second moment below mean² — impossible for a
// real distribution, but reachable through single-sample floating
// cancellation — is clamped up to mean² so downstream variance terms
// stay nonnegative.
func (e *Estimates) ServerTypesWithMeasuredService(env *spec.Environment) []spec.ServerType {
	types := env.Types()
	for i := range types {
		mp, ok := e.ServiceMoments[types[i].Name]
		if !ok || mp.N == 0 {
			continue
		}
		if !(mp.Mean > 0) || math.IsInf(mp.Mean, 0) || math.IsInf(mp.SecondMoment, 0) || math.IsNaN(mp.SecondMoment) {
			continue
		}
		types[i].MeanService = mp.Mean
		types[i].ServiceSecondMoment = math.Max(mp.SecondMoment, mp.Mean*mp.Mean)
	}
	return types
}

// MeasuredEnvironment rebuilds the environment with measured service
// moments applied, re-validating the result. A measurement set that the
// environment's own validation rejects comes back as a typed
// invalid_model error.
func (e *Estimates) MeasuredEnvironment(env *spec.Environment) (*spec.Environment, error) {
	out, err := spec.NewEnvironment(e.ServerTypesWithMeasuredService(env)...)
	if err != nil {
		return nil, wfmserr.Wrap(err, wfmserr.CodeInvalidModel, "calibrate",
			"environment invalid after applying measured service moments")
	}
	return out, nil
}

// ApplySystem rewrites a whole decoded system with the estimates: every
// workflow's transition probabilities, activity durations, and arrival
// rate are replaced by measured values in place (where observations
// suffice), and the returned environment carries the measured
// service-time moments. This is the one-call form of the paper's
// feedback loop: wfmsd's drift-triggered rebuilds and POST
// /v1/calibrate both go through it, so the same estimates produce
// bit-identical models on either route.
func (e *Estimates) ApplySystem(env *spec.Environment, flows []*spec.Workflow, opts Options) (*spec.Environment, error) {
	for _, w := range flows {
		if err := e.ApplyToWorkflow(w, env, opts); err != nil {
			return nil, err
		}
		if rate, ok := e.ArrivalRates[w.Name]; ok && rate > 0 {
			w.ArrivalRate = rate
		}
	}
	return e.MeasuredEnvironment(env)
}
