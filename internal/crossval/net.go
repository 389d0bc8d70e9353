package crossval

import (
	"fmt"

	"performa/internal/spec"
	"performa/internal/wfnet"
)

// CheckNet is the net-differential route (wfmscheck -net): it compares
// three independent views of the mean turnaround of every workflow.
//
//   - The free-choice workflow-net oracle: wfnet translates the
//     uncollapsed statechart into a probabilistic workflow net and
//     solves E[execution time] exactly on its marking-graph CTMC. This
//     is the only analytic route that computes E[max of branch
//     turnaround VARIABLES] for AND states.
//   - The true-concurrency simulator: sim.Params.TrueConcurrency walks
//     the same uncollapsed chart with fork/join tokens.
//   - The production collapse: spec.Build's chain, whose AND residence
//     is the max of branch MEANS, pinned against wfnet's independent
//     reimplementation of the same max-of-means recursion.
//
// The first two must agree within the simulation tolerance; the
// collapsed pair must agree to solver precision; and the collapse must
// sit at or below the net oracle (Jensen: max of means ≤ mean of max).
// The legacy Check cannot falsify the collapse because its simulator
// replays the collapsed chain itself — this route closes that gap, and
// FaultCollapseBias (blind in Check) is detected here by the exact
// collapsed-turnaround pin.
func CheckNet(sys *System, opt Options) ([]Disagreement, error) {
	opt.setDefaults()
	if opt.Fault != FaultNone && opt.Fault != FaultCollapseBias {
		return nil, fmt.Errorf("crossval: the net route only injects the collapse-bias fault, not %v", opt.Fault)
	}

	// Collapsed analytic leg, through the (possibly faulted) build path.
	models, err := spec.BuildAll(sys.Flows, sys.Env, buildFaultOpts(opt.Fault)...)
	if err != nil {
		return nil, fmt.Errorf("crossval: building collapsed models: %w", err)
	}

	var ds []Disagreement
	netMeans := make([]float64, len(sys.Flows))
	for i, f := range sys.Flows {
		net, err := wfnet.FromWorkflow(f)
		if err != nil {
			return nil, fmt.Errorf("crossval: translating %q to a workflow net: %w", f.Name, err)
		}
		res, err := wfnet.ExpectedDefault(net)
		if err != nil {
			return nil, fmt.Errorf("crossval: net oracle for %q: %w", f.Name, err)
		}
		netMeans[i] = res.Mean

		// Exact pin: the production collapse against wfnet's independent
		// max-of-means reference. A fault anywhere in spec.Build's
		// collapse (moment matching aside — means are clamp-invariant)
		// lands here.
		ref, err := wfnet.CollapsedReference(f.Chart, f.Profiles)
		if err != nil {
			return nil, fmt.Errorf("crossval: collapsed reference for %q: %w", f.Name, err)
		}
		ds = compare(ds, "net", fmt.Sprintf("collapsed-turnaround[%s]", f.Name),
			ref, models[i].Turnaround(), 0, tolExact)

		// One-sided ordering: max-of-means can only UNDERestimate the
		// true expected turnaround.
		if slack := tolExact.Slack(res.Mean, 0); ref > res.Mean+slack {
			ds = append(ds, Disagreement{
				Route:  "net",
				Metric: fmt.Sprintf("collapse-order[%s]", f.Name),
				Ref:    res.Mean,
				Obs:    ref,
				Slack:  slack,
			})
		}
	}
	// Against the true-concurrency simulator, which reads the raw chart
	// and profiles off the model, never the collapsed chain. The horizon
	// is sized from the net means: under heavy fan-out they exceed the
	// collapsed ones.
	return simulatedTurnarounds(ds, "net", sys, netMeans, 4021, true)
}
