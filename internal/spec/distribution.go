package spec

import (
	"fmt"

	"performa/internal/ctmc"
	"performa/internal/linalg"
)

// TurnaroundCDF returns P(turnaround ≤ t) for each requested time, via
// the uniformized transient analysis of the workflow CTMC. This extends
// the paper's mean-value analysis to full distributions — the basis for
// percentile-level service agreements.
//
// Uniformization assumes exponential residences, so it runs on Expand's
// stage chain: an activity with DurationStages = k contributes an
// Erlang-k residence, and a collapsed subworkflow state the Erlang
// sequence moment-matched to its dominant subworkflow's mean and
// variance. The collapsed shape is a two-moment fit, so distributions of
// nested workflows are approximate even though their means are exact.
func (m *Model) TurnaroundCDF(times []float64) ([]float64, error) {
	return ctmc.TurnaroundCDF(Expand(m).Chain, times)
}

// TurnaroundQuantile returns the time t with P(turnaround ≤ t) ≈ q.
func (m *Model) TurnaroundQuantile(q float64) (float64, error) {
	return ctmc.TurnaroundQuantile(Expand(m).Chain, q)
}

// Expand returns m with every state of Erlang stage count k spelled out
// as k exponential states in sequence, named name, name#2, …, name#k,
// each with residence H_i/k and load l/k. Incoming arcs enter the first
// stage and outgoing arcs leave the last; each stage is visited once per
// visit of its state, so every mean quantity carries over unchanged. The
// simulator, the turnaround distribution and the chain views read this
// chain; a model without stages is returned as is.
func Expand(m *Model) *Model {
	if m.stages == nil {
		return m
	}
	abs := len(m.stages)
	first := make([]int, abs+1)
	for i, k := range m.stages {
		first[i+1] = first[i] + k
	}
	n := first[abs] + 1
	e := &Model{Workflow: m.Workflow, Chain: ctmc.NewChain(n), Load: linalg.NewMatrix(m.Load.Rows(), n),
		StateNames: make([]string, n), turnaround: m.turnaround, variance: m.variance,
		requests: m.requests, visits: linalg.NewVector(n), clampedStages: m.clampedStages}
	e.Chain.Names = e.StateNames
	for i, k := range m.stages {
		for j := first[i]; j < first[i+1]; j++ {
			e.StateNames[j] = m.StateNames[i]
			if j > first[i] {
				e.StateNames[j] = fmt.Sprintf("%s#%d", m.StateNames[i], j-first[i]+1)
				e.Chain.AddArc(j-1, j, 1)
			}
			e.Chain.H[j] = m.Chain.H[i] / float64(k)
			for x := 0; x < e.Load.Rows(); x++ {
				e.Load.Set(x, j, m.Load.At(x, i)/float64(k))
			}
			e.visits[j] = m.visits[i]
		}
		for _, a := range m.Chain.Arcs[i] {
			e.Chain.AddArc(first[i+1]-1, first[a.To], a.Prob)
		}
	}
	e.StateNames[n-1] = "s_A"
	return e
}
