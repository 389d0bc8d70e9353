package spec

import (
	"fmt"

	"performa/internal/statechart"
)

// ActivityProfile carries the per-activity-type model parameters: the
// mean activity turnaround time (the CTMC state residence time of Section
// 3.2) and the load vector, i.e. the expected number of service requests
// the activity induces on each server type (the column of the load matrix
// L^t of Section 4.2). In production these come from runtime statistics
// (package calibrate); for a new application they are estimated by the
// designer.
type ActivityProfile struct {
	// Name is the activity type's name.
	Name string
	// MeanDuration is the activity's mean turnaround time.
	MeanDuration float64
	// Load maps server-type name to the expected number of service
	// requests one execution of this activity sends to that type.
	Load map[string]float64
	// DurationStages expands the activity's duration into an Erlang-k
	// phase sequence with the same mean (the paper's Section 5.1
	// expansion technique applied to residence times). Zero or one
	// means exponential. Stage counts do not change any mean-value
	// metric — turnaround, loads, waiting times — but tighten the
	// turnaround-time distribution (see Model.TurnaroundCDF).
	DurationStages int
}

func (p ActivityProfile) validate(env *Environment) error {
	if p.Name == "" {
		return fmt.Errorf("spec: activity profile has no name")
	}
	if !(p.MeanDuration > 0) {
		return fmt.Errorf("spec: activity %q: mean duration %v must be positive", p.Name, p.MeanDuration)
	}
	if p.DurationStages < 0 {
		return fmt.Errorf("spec: activity %q: negative duration stage count %d", p.Name, p.DurationStages)
	}
	for serverType, load := range p.Load {
		if _, ok := env.Index(serverType); !ok {
			return fmt.Errorf("spec: activity %q: unknown server type %q", p.Name, serverType)
		}
		if load < 0 {
			return fmt.Errorf("spec: activity %q: negative load %v on %q", p.Name, load, serverType)
		}
	}
	return nil
}

// Workflow bundles a workflow type: its statechart specification, the
// activity profiles of every referenced activity, and the arrival rate of
// new instances (Section 4.3).
type Workflow struct {
	// Name is the workflow type's name; it defaults to the chart name.
	Name string
	// Chart is the statechart specification.
	Chart *statechart.Chart
	// Profiles maps activity name to its profile. Every activity
	// referenced by the chart (including nested subcharts) must have a
	// profile.
	Profiles map[string]ActivityProfile
	// ArrivalRate is ξ_t, the mean number of new user-initiated
	// instances per time unit.
	ArrivalRate float64
}

// Validate checks the workflow against the environment: the chart must be
// structurally valid, every activity must have a valid profile, and the
// arrival rate must be nonnegative.
func (w *Workflow) Validate(env *Environment) error {
	if w.Chart == nil {
		return fmt.Errorf("spec: workflow %q has no chart", w.Name)
	}
	if err := w.Chart.Validate(); err != nil {
		return err
	}
	return w.ValidateParameters(env)
}

// ValidateParameters is Validate after the chart's own checks: the
// arrival rate and the profile of every activity the chart references.
func (w *Workflow) ValidateParameters(env *Environment) error {
	if w.ArrivalRate < 0 {
		return fmt.Errorf("spec: workflow %q: negative arrival rate %v", w.displayName(), w.ArrivalRate)
	}
	for _, act := range w.Chart.Activities() {
		p, ok := w.Profiles[act]
		if !ok {
			return fmt.Errorf("spec: workflow %q: no profile for activity %q", w.displayName(), act)
		}
		if p.Name != act {
			return fmt.Errorf("spec: workflow %q: profile keyed %q has Name %q", w.displayName(), act, p.Name)
		}
		if err := p.validate(env); err != nil {
			return err
		}
	}
	return nil
}

func (w *Workflow) displayName() string {
	if w.Name != "" {
		return w.Name
	}
	if w.Chart != nil {
		return w.Chart.Name
	}
	return "(unnamed)"
}
