package wfnet

import (
	"performa/internal/linalg"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
)

// CollapsedReference computes the paper's hierarchically collapsed mean
// turnaround (Section 4.2.2: a parallel state's residence is the MAX of
// its subworkflows' mean turnarounds) independently of spec.Build: no
// CTMC is constructed and no Erlang expansion applied — the mean
// first-passage time is solved directly on the chart-level embedded
// chain, which leaves every mean quantity unchanged. The value must
// match spec.Build's Model.Turnaround() to solver precision, which the
// crossval net route uses to pin the production collapse: a fault
// perturbing the collapse inside spec.Build shifts Turnaround() but not
// this reference.
func CollapsedReference(chart *statechart.Chart, profiles map[string]spec.ActivityProfile) (float64, error) {
	if err := chart.Validate(); err != nil {
		return 0, wfmserr.Wrap(err, wfmserr.CodeInvalidModel, "wfnet",
			"chart %q fails validation", chart.Name)
	}
	return collapsedChart(chart, profiles)
}

func collapsedChart(chart *statechart.Chart, profiles map[string]spec.ActivityProfile) (float64, error) {
	initial, finals, real, err := classifyStates(chart)
	if err != nil {
		return 0, err
	}
	order := make([]string, 0, len(real))
	index := make(map[string]int, len(real))
	for _, name := range chart.StateNames() {
		if real[name] {
			index[name] = len(order)
			order = append(order, name)
		}
	}

	// Residence per real state: activity mean duration, or the max of
	// the subcharts' recursively collapsed turnarounds.
	h := make([]float64, len(order))
	for i, name := range order {
		s := chart.States[name]
		if s.Activity != "" {
			h[i] = profiles[s.Activity].MeanDuration
			continue
		}
		for _, sub := range s.Subcharts {
			r, err := collapsedChart(sub, profiles)
			if err != nil {
				return 0, err
			}
			if r > h[i] {
				h[i] = r
			}
		}
	}

	// τ = H + P·τ on the embedded chart-level chain; transitions into
	// pseudo final states absorb (contribute nothing). Solved by LU
	// here, not by ctmc's absorption kernel: this is that kernel's
	// oracle.
	n := len(order)
	a := linalg.Identity(n)
	for _, t := range chart.Transitions {
		if !real[t.From] {
			continue
		}
		var to int
		switch {
		case real[t.To]:
			to = index[t.To]
		case finals[t.To]:
			continue
		case t.To == chart.Initial:
			to = index[initial]
		default:
			return 0, wfmserr.New(wfmserr.CodeInternal, "wfnet",
				"chart %q: transition into pseudo-state %q", chart.Name, t.To)
		}
		a.Add(index[t.From], to, -t.Prob)
	}
	lu, err := linalg.FactorLU(a)
	var tau linalg.Vector
	if err == nil {
		tau, err = lu.Solve(linalg.Vector(h))
	}
	if err != nil {
		return 0, wfmserr.Wrap(err, wfmserr.CodeInvalidModel, "wfnet",
			"chart %q: collapsed-reference solve failed", chart.Name)
	}
	return tau[index[initial]], nil
}
