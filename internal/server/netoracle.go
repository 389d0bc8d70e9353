package server

import "performa/internal/wfnet"

// This file backs the opt-in model.turnaround = "net" section of
// /v1/assess: each workflow's uncollapsed statechart is translated into
// a free-choice probabilistic workflow net and its exact expected
// execution time solved on the marking-graph CTMC — the quantity the
// production max-of-means collapse underestimates for AND states (see
// internal/wfnet and the crossval -net route). The result is a pure
// function of the system, so it is memoized on the warm model entry.

// netTurnarounds returns the entry's memoized net-oracle section,
// computing it on first use. A failure (e.g. a net the solver's state
// budget cannot admit) is memoized too: the computation is
// deterministic, so retrying cannot succeed.
func (e *modelEntry) netTurnarounds() (*TurnaroundJSON, error) {
	e.netOnce.Do(func() {
		out := &TurnaroundJSON{
			Model:     "net",
			Workflows: make([]WorkflowTurnaroundJSON, 0, len(e.flows)),
		}
		for i, f := range e.flows {
			net, err := wfnet.FromWorkflow(f)
			if err != nil {
				e.netErr = err
				return
			}
			res, err := wfnet.ExpectedDefault(net)
			if err != nil {
				e.netErr = err
				return
			}
			col := e.collapsedTurn[i]
			bias := 0.0
			if res.Mean > 0 {
				bias = (res.Mean - col) / res.Mean
			}
			out.Workflows = append(out.Workflows, WorkflowTurnaroundJSON{
				Workflow:  f.Name,
				Collapsed: Float(col),
				Net:       Float(res.Mean),
				BiasRel:   Float(bias),
				Markings:  res.Markings,
			})
		}
		e.netTurn = out
	})
	return e.netTurn, e.netErr
}
