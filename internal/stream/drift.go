package stream

import (
	"fmt"
	"sort"

	"performa/internal/calibrate"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// Baseline captures the parameters baked into a built model — the values
// drift is measured against. It is computed once per cached model from
// the exact environment and workflows the model was built from.
type Baseline struct {
	// Transitions holds the branch probability of every chart transition.
	Transitions map[calibrate.TransitionKey]float64
	// Activities holds each activity type's mean duration (the residence
	// time H_i of the flat CTMC states it induces).
	Activities map[string]float64
	// Service holds each server type's mean service time b_x.
	Service map[string]float64
	// Arrivals holds each workflow type's arrival rate ξ_t.
	Arrivals map[string]float64
}

// NewBaseline extracts the drift-relevant parameters of a system.
func NewBaseline(env *spec.Environment, flows []*spec.Workflow) *Baseline {
	b := &Baseline{
		Transitions: map[calibrate.TransitionKey]float64{},
		Activities:  map[string]float64{},
		Service:     map[string]float64{},
		Arrivals:    map[string]float64{},
	}
	for _, w := range flows {
		b.addChart(w.Chart)
		for name, prof := range w.Profiles {
			b.Activities[name] = prof.MeanDuration
		}
		b.Arrivals[w.Name] = w.ArrivalRate
	}
	if env != nil {
		for _, st := range env.Types() {
			b.Service[st.Name] = st.MeanService
		}
	}
	return b
}

func (b *Baseline) addChart(c *statechart.Chart) {
	if c == nil {
		return
	}
	for _, tr := range c.Transitions {
		b.Transitions[calibrate.TransitionKey{Chart: c.Name, From: tr.From, To: tr.To}] = tr.Prob
	}
	for _, s := range c.States {
		for _, sub := range s.Subcharts {
			b.addChart(sub)
		}
	}
}

// Thresholds are the relative-change levels above which a model counts
// as drifted, plus the minimum sample sizes below which a dimension is
// not scored at all (early, noisy estimates must not trash a warm
// cache).
type Thresholds struct {
	// Transition is the threshold on branch-probability change. The
	// change is |observed − baseline| / max(baseline, probFloor), the
	// floor keeping rarely-taken branches from producing unbounded
	// relative changes.
	Transition float64
	// Residence is the threshold on relative activity-duration change.
	Residence float64
	// Service is the threshold on relative service-time-mean change.
	Service float64
	// Arrival is the threshold on relative arrival-rate change.
	Arrival float64
	// MinDepartures is the minimum observed departures from a state
	// before its branch probabilities are scored.
	MinDepartures uint64
	// MinSamples is the minimum observation count before a duration,
	// service, or arrival estimate is scored.
	MinSamples uint64
}

// DefaultThresholds mirror the paper's calibration-loop setting: a
// quarter shift in branching or timing behavior, or a halving/doubling
// scale shift in arrivals, is worth a re-derivation of the model.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Transition:    0.25,
		Residence:     0.25,
		Service:       0.25,
		Arrival:       0.5,
		MinDepartures: 50,
		MinSamples:    25,
	}
}

func (t Thresholds) WithDefaults() Thresholds {
	d := DefaultThresholds()
	if t.Transition <= 0 {
		t.Transition = d.Transition
	}
	if t.Residence <= 0 {
		t.Residence = d.Residence
	}
	if t.Service <= 0 {
		t.Service = d.Service
	}
	if t.Arrival <= 0 {
		t.Arrival = d.Arrival
	}
	if t.MinDepartures == 0 {
		t.MinDepartures = d.MinDepartures
	}
	if t.MinSamples == 0 {
		t.MinSamples = d.MinSamples
	}
	return t
}

// probFloor is the denominator floor for transition relative changes: a
// branch specified at probability 0.01 that is observed at 0.06 has
// drifted by (0.06−0.01)/0.05 = 1.0, not by 5.0.
const probFloor = 0.05

// Contribution is one scored parameter, for drift reporting.
type Contribution struct {
	// Dimension is "transition", "residence", "service", or "arrival".
	Dimension string `json:"dimension"`
	// Parameter names the scored parameter (transition, activity, server
	// type, or workflow).
	Parameter string `json:"parameter"`
	// Baseline is the value baked into the model.
	Baseline float64 `json:"baseline"`
	// Observed is the running estimate.
	Observed float64 `json:"observed"`
	// Change is the relative change that was scored.
	Change float64 `json:"change"`
}

// Score is the result of comparing running estimates against a
// baseline: the worst relative change per dimension and the worst
// single contributions overall.
type Score struct {
	// Transition is the worst branch-probability change.
	Transition float64 `json:"transition"`
	// Residence is the worst activity-duration change.
	Residence float64 `json:"residence"`
	// Service is the worst service-mean change.
	Service float64 `json:"service"`
	// Arrival is the worst arrival-rate change.
	Arrival float64 `json:"arrival"`
	// Top lists the highest-change contributions, worst first (at most
	// topContributions entries).
	Top []Contribution `json:"top,omitempty"`
}

const topContributions = 5

// Max returns the worst per-dimension change.
func (s Score) Max() float64 {
	m := s.Transition
	for _, v := range []float64{s.Residence, s.Service, s.Arrival} {
		if v > m {
			m = v
		}
	}
	return m
}

// Exceeds reports whether any dimension crosses its threshold.
func (s Score) Exceeds(t Thresholds) bool {
	t = t.WithDefaults()
	return s.Transition > t.Transition ||
		s.Residence > t.Residence ||
		s.Service > t.Service ||
		s.Arrival > t.Arrival
}

// String renders the score compactly for logs.
func (s Score) String() string {
	return fmt.Sprintf("transition=%.3f residence=%.3f service=%.3f arrival=%.3f",
		s.Transition, s.Residence, s.Service, s.Arrival)
}

func relChange(observed, base, floor float64) float64 {
	denom := base
	if denom < floor {
		denom = floor
	}
	d := observed - base
	if d < 0 {
		d = -d
	}
	return d / denom
}

// ScoreAgainst compares the estimator's running state against a
// baseline under the given thresholds. The comparison runs directly on
// the internal counters — no snapshot, no allocation proportional to
// the stream — so it is cheap enough to run after every ingested batch.
func (e *Estimator) ScoreAgainst(b *Baseline, t Thresholds) Score {
	t = t.WithDefaults()
	e.mu.Lock()
	defer e.mu.Unlock()

	var s Score
	var contribs []Contribution
	note := func(dim, param string, base, observed, change float64) {
		contribs = append(contribs, Contribution{
			Dimension: dim, Parameter: param,
			Baseline: base, Observed: observed, Change: change,
		})
	}

	// Branch probabilities: observed count over observed departures from
	// the same (chart, state), scored only against baked-in transitions
	// so unexpected states (renamed charts, foreign trails) cannot fake
	// drift.
	for key, base := range b.Transitions {
		dep := e.departures[[2]string{key.Chart, key.From}]
		if dep == 0 || dep < t.MinDepartures {
			continue
		}
		observed := float64(e.transitions[key]) / float64(dep)
		if change := relChange(observed, base, probFloor); change > 0 {
			if change > s.Transition {
				s.Transition = change
			}
			note("transition", fmt.Sprintf("%s:%s→%s", key.Chart, key.From, key.To), base, observed, change)
		}
	}

	// Activity durations against the profile means baked into the model.
	for act, base := range b.Activities {
		m := e.activities[act]
		if m == nil || m.N < t.MinSamples || base <= 0 {
			continue
		}
		if change := relChange(m.Mean, base, 0); change > 0 {
			if change > s.Residence {
				s.Residence = change
			}
			note("residence", act, base, m.Mean, change)
		}
	}

	// Service-time means against the environment's b_x.
	for st, base := range b.Service {
		sm := e.servers[st]
		if sm == nil || sm.service.N < t.MinSamples || base <= 0 {
			continue
		}
		if change := relChange(sm.service.Mean, base, 0); change > 0 {
			if change > s.Service {
				s.Service = change
			}
			note("service", st, base, sm.service.Mean, change)
		}
	}

	// Arrival rates against ξ_t. Needs at least MinSamples starts and a
	// positive baseline (a zero-rate workflow has no meaningful relative
	// change).
	for wf, base := range b.Arrivals {
		a := e.starts[wf]
		if a == nil || a.count < t.MinSamples || base <= 0 {
			continue
		}
		span := a.last - a.first
		if a.count < 2 || span <= 0 {
			continue
		}
		observed := float64(a.count-1) / span
		if change := relChange(observed, base, 0); change > 0 {
			if change > s.Arrival {
				s.Arrival = change
			}
			note("arrival", wf, base, observed, change)
		}
	}

	sort.Slice(contribs, func(i, j int) bool { return contribs[i].Change > contribs[j].Change })
	if len(contribs) > topContributions {
		contribs = contribs[:topContributions]
	}
	s.Top = contribs
	return s
}
