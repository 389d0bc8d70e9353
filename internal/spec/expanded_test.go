package spec

import (
	"fmt"

	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
)

// The stage-expanded build: every Erlang stage of an activity or a
// collapsed subworkflow is its own CTMC state, and the moments and visits
// are read off that chain with exponential residences. Build reaches the
// same numbers on the chart's states alone; this route is the oracle the
// equivalence tests hold it to.

// BuildExpanded is Build over the stage-expanded chain.
func BuildExpanded(w *Workflow, env *Environment, opts ...BuildOption) (*Model, error) {
	if err := w.Validate(env); err != nil {
		return nil, err
	}
	opt := buildOptions{collapseScale: 1}
	for _, o := range opts {
		o(&opt)
	}
	m, err := buildExpanded(w.Chart, w.Profiles, env, opt)
	if err != nil {
		return nil, err
	}
	m.Workflow = w
	return m, nil
}

// Variance exposes a model's turnaround variance to the external tests.
func Variance(m *Model) float64 { return m.variance }

// Stages exposes a model's per-state Erlang stage counts (nil when every
// state is one stage) to the external tests.
func Stages(m *Model) []int { return m.stages }

// buildExpanded recursively maps a chart (workflow or subworkflow) onto a
// Model.
func buildExpanded(chart *statechart.Chart, profiles map[string]ActivityProfile, env *Environment, opt buildOptions) (*Model, error) {
	// Identify the CTMC's transient states: every chart state that
	// invokes an activity or embeds subworkflows. Pseudo-states are
	// allowed only as the chart's initial state (spliced out below) and
	// final state (becoming the absorbing state s_A).
	initial, finals, real, err := classifyStatesExpanded(chart)
	if err != nil {
		return nil, err
	}

	// Fix the CTMC state order: initial execution state first, then the
	// remaining real states in StateNames order, then s_A.
	order := make([]string, 0, len(real)+1)
	order = append(order, initial)
	for _, name := range chart.StateNames() {
		if name != initial && real[name] {
			order = append(order, name)
		}
	}

	// Collapse nested subworkflows first (Section 4.2.2): the parent
	// state's residence time is the maximum of the parallel subworkflows'
	// turnaround times and its load is the sum of their expected request
	// vectors. The collapsed residence keeps the dominant subworkflow's
	// turnaround *distribution* shape as well: an Erlang stage count
	// moment-matched to that subworkflow (k ≈ mean²/variance) replaces
	// the single exponential state, so a subworkflow made of long
	// low-variance phases does not degenerate into a heavy-tailed
	// exponential whose short draws compress all of its service requests
	// into a burst. Every collapsed quantity the analytic routes consume
	// (mean residence, visits, expected requests) is invariant in k.
	type collapsed struct {
		maxR   float64
		stages int
		load   linalg.Vector
	}
	subs := make(map[string]*collapsed)
	clampedStages := 0
	for _, name := range order {
		s := chart.States[name]
		if len(s.Subcharts) == 0 {
			continue
		}
		info := &collapsed{stages: 1, load: linalg.NewVector(env.K())}
		var dominant *Model
		for _, sub := range s.Subcharts {
			subModel, err := buildExpanded(sub, profiles, env, opt)
			if err != nil {
				return nil, err
			}
			if r := subModel.Turnaround(); r > info.maxR {
				info.maxR = r
				dominant = subModel
			}
			for x := 0; x < env.K(); x++ {
				info.load[x] += subModel.requests[x]
			}
			clampedStages += subModel.clampedStages
		}
		if dominant != nil && info.maxR > 0 {
			if k, clamped, ok := collapseStages(info.maxR, dominant.variance); ok {
				info.stages = k
				if clamped {
					clampedStages++
				}
			}
		}
		// Fault-injection hook (crossval): scale the collapsed residence
		// after moment matching, as a broken collapse would.
		info.maxR *= opt.collapseScale
		subs[name] = info
	}

	// Each chart state occupies one CTMC state, except states that expand
	// into an Erlang phase sequence (same mean, tighter distribution):
	// activity states with DurationStages > 1 and collapsed subworkflow
	// states with a moment-matched stage count. Incoming transitions
	// enter the first stage, outgoing transitions leave the last.
	stageCount := func(name string) int {
		s := chart.States[name]
		if s.Activity != "" {
			if k := profiles[s.Activity].DurationStages; k > 1 {
				return k
			}
		}
		if info := subs[name]; info != nil {
			return info.stages
		}
		return 1
	}
	first := make(map[string]int, len(order))
	last := make(map[string]int, len(order))
	total := 0
	for _, name := range order {
		first[name] = total
		k := stageCount(name)
		// Guard the running sum against overflow from adversarial
		// DurationStages values; the budget check below then rejects
		// any total it cannot admit.
		if k > (1<<62)-total {
			total = 1 << 62
			break
		}
		total += k
		last[name] = total - 1
	}
	abs := total
	n := total + 1 // + absorbing state

	// Pre-flight: the chain's dimension (including the Erlang stage
	// expansion, which multiplies states by DurationStages) must fit the
	// budget before anything is allocated.
	if err := wfmserr.Default.CheckMatrixDim("spec", n); err != nil {
		return nil, wfmserr.Wrap(err, wfmserr.CodeOf(err), "spec",
			"chart %q expands to too many CTMC states", chart.Name)
	}

	chain := ctmc.NewChain(n)
	h := chain.H
	load := linalg.NewMatrix(env.K(), n)
	names := make([]string, n)
	names[abs] = "s_A"
	chain.Names = names

	// Residence times, per-visit loads, and intra-activity stage
	// chaining.
	for _, name := range order {
		s := chart.States[name]
		i := first[name]
		k := stageCount(name)
		names[i] = name
		for stage := 1; stage < k; stage++ {
			names[i+stage] = fmt.Sprintf("%s#%d", name, stage+1)
			chain.AddArc(i+stage-1, i+stage, 1)
		}
		switch {
		case s.Activity != "":
			prof := profiles[s.Activity]
			for stage := 0; stage < k; stage++ {
				h[i+stage] = prof.MeanDuration / float64(k)
			}
			// The activity's service requests belong to the whole
			// execution. Every stage of the chain is visited exactly
			// once per execution, so dividing the load equally across
			// stages preserves all expected-request quantities while
			// letting the simulator spread the requests over the whole
			// execution instead of bursting them into the first stage's
			// residence.
			for serverType, l := range prof.Load {
				x, _ := env.Index(serverType)
				for stage := 0; stage < k; stage++ {
					load.Set(x, i+stage, l/float64(k))
				}
			}
		default: // nested subworkflows, possibly parallel
			// Collapsed above; spread the residence and the summed load
			// across the moment-matched stages exactly like an activity.
			info := subs[name]
			for stage := 0; stage < k; stage++ {
				h[i+stage] = info.maxR / float64(k)
			}
			for x := 0; x < env.K(); x++ {
				if l := info.load[x]; l != 0 {
					for stage := 0; stage < k; stage++ {
						load.Add(x, i+stage, l/float64(k))
					}
				}
			}
		}
	}

	// Transition probabilities; edges into pseudo-final states retarget
	// to s_A.
	for _, t := range chart.Transitions {
		if !real[t.From] {
			continue // initial splice handled by classifyStatesExpanded
		}
		from := last[t.From]
		var to int
		switch {
		case real[t.To]:
			to = first[t.To]
		case finals[t.To]:
			to = abs
		case t.To == chart.Initial:
			// A loop back to the pseudo initial state re-enters the
			// spliced-in first execution state.
			to = first[initial]
		default:
			// classifyStatesExpanded guarantees this cannot happen.
			return nil, fmt.Errorf("spec: internal error: transition into pseudo-state %q", t.To)
		}
		chain.AddArc(from, to, t.Prob)
	}
	// A real final state (an activity state with no outgoing chart
	// transitions) absorbs with probability one.
	if real[chart.Final] {
		chain.AddArc(last[chart.Final], abs, 1)
	}

	turnaround, variance, err := ctmc.TurnaroundMoments(chain)
	if err != nil {
		return nil, fmt.Errorf("spec: chart %q: %w", chart.Name, err)
	}
	visits, err := ctmc.ExpectedVisits(chain)
	if err != nil {
		return nil, fmt.Errorf("spec: chart %q: %w", chart.Name, err)
	}
	requests := linalg.NewVector(env.K())
	for x := 0; x < env.K(); x++ {
		var total float64
		for i := 0; i < abs; i++ {
			total += visits[i] * load.At(x, i)
		}
		requests[x] = total
	}
	return &Model{
		Chain:         chain,
		Load:          load,
		StateNames:    names,
		turnaround:    turnaround,
		variance:      variance,
		requests:      requests,
		visits:        visits,
		clampedStages: clampedStages,
	}, nil
}

// classifyStatesExpanded splits chart states into the initial execution state
// (after splicing a pseudo initial state), the set of pseudo final
// states, and the set of "real" states that become CTMC states.
func classifyStatesExpanded(chart *statechart.Chart) (initial string, finals map[string]bool, real map[string]bool, err error) {
	real = make(map[string]bool, len(chart.States))
	finals = map[string]bool{}
	for name, s := range chart.States {
		if s.Activity != "" || len(s.Subcharts) > 0 {
			real[name] = true
			continue
		}
		switch name {
		case chart.Initial, chart.Final:
			// pseudo-states handled below
		default:
			return "", nil, nil, fmt.Errorf("spec: chart %q: state %q has neither an activity nor a subworkflow; only the initial and final states may be pseudo-states", chart.Name, name)
		}
	}
	if !real[chart.Final] {
		finals[chart.Final] = true
	}

	initial = chart.Initial
	if !real[initial] {
		// Splice the pseudo initial state: the paper's CTMC starts in
		// the first execution state, so the pseudo state must lead to
		// exactly one real state with probability one.
		out := chart.Outgoing(initial)
		if len(out) != 1 {
			return "", nil, nil, fmt.Errorf("spec: chart %q: pseudo initial state %q must have exactly one outgoing transition, has %d (the CTMC needs a single initial execution state)", chart.Name, initial, len(out))
		}
		if !real[out[0].To] {
			return "", nil, nil, fmt.Errorf("spec: chart %q: initial transition leads to pseudo-state %q; the workflow performs no work", chart.Name, out[0].To)
		}
		initial = out[0].To
	}
	return initial, finals, real, nil
}
