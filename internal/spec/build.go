package spec

import (
	"fmt"
	"math"
	"slices"

	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
)

// Bounds on the moment-matched Erlang expansion of a collapsed
// subworkflow state. Collapses whose matched stage count falls below
// minCollapseStages keep the paper's single exponential state (Section
// 4.2.2) — the expansion only kicks in when the subworkflow's duration is
// markedly sub-exponential, where one exponential state would let short
// residence draws compress the subworkflow's whole request load into a
// burst. The cap only limits how faithfully a very low-variance
// subworkflow's duration shape is preserved; all mean quantities are
// exact for any stage count, and the overall chain size is still
// governed by wfmserr.Default.CheckMatrixDim.
const (
	minCollapseStages = 4
	maxCollapseStages = 256
)

// Model is the stochastic model of one workflow type: the absorbing CTMC
// of Section 3.2 plus the load matrix L^t of Section 4.2, with nested and
// parallel subworkflows already collapsed hierarchically per Section
// 4.2.2. Turnaround and expected request counts are computed eagerly
// because parents need them to collapse nested states.
//
// Build's chain has one state per chart state, as in the paper. A state
// whose residence is an Erlang-k sequence (an activity's
// DurationStages, a collapsed subworkflow's moment-matched stage count)
// keeps k only as its residence second moment; Expand spells the stages
// out for the routes that need the distribution.
type Model struct {
	// Workflow is the source workflow; nil for subworkflow models built
	// during recursion.
	Workflow *Workflow
	// Chain is the absorbing CTMC; state 0 is the initial execution
	// state and the last state is s_A. H_i is the state's whole mean
	// residence, however many stages it has.
	Chain *ctmc.Chain
	// Load is the k-by-N load matrix: Load[x][i] is the expected number
	// of service requests on server type x per visit of state i. The
	// absorbing column is zero.
	Load *linalg.Matrix
	// StateNames labels the CTMC states with chart state names
	// (name#s for stage s > 1 of an expanded state).
	StateNames []string

	turnaround    float64
	variance      float64
	requests      linalg.Vector
	visits        linalg.Vector
	clampedStages int
	// stages[i] is the Erlang stage count of transient state i; nil on
	// a model whose every state is one exponential stage.
	stages []int
}

// Turnaround returns R_t, the mean turnaround time of one instance.
func (m *Model) Turnaround() float64 { return m.turnaround }

// ExpectedRequests returns the vector r with r[x] = r_{x,t}, the expected
// number of service requests one instance induces on server type x.
func (m *Model) ExpectedRequests() linalg.Vector { return m.requests.Clone() }

// ExpectedVisits returns the expected number of visits per Chain state.
func (m *Model) ExpectedVisits() linalg.Vector { return m.visits.Clone() }

// ClampedStages reports how many collapsed subworkflow states across
// this build (including nested subworkflow builds) had their
// moment-matched Erlang stage count clamped at maxCollapseStages. A
// nonzero count means the collapsed residence-time DISTRIBUTION is less
// concentrated than the subworkflow's true one (every mean quantity is
// still exact); operators watching simulation-vs-analytic drift on
// burst metrics want the signal surfaced rather than silently degraded.
func (m *Model) ClampedStages() int { return m.clampedStages }

// BuildOption tweaks a Build. Options exist for the differential
// validation harness; production callers pass none.
type BuildOption func(*buildOptions)

type buildOptions struct {
	collapseScale float64
}

// WithCollapseResidenceScale multiplies the collapsed residence of
// every subworkflow state (the max-of-means of Section 4.2.2) by f.
// It simulates a broken hierarchical collapse for fault-injection
// self-tests: the scaled model stays internally consistent, so only a
// route that recomputes the collapse independently can notice.
func WithCollapseResidenceScale(f float64) BuildOption {
	return func(o *buildOptions) { o.collapseScale = f }
}

// Build maps the workflow onto its stochastic model, validating it
// against the environment first.
func Build(w *Workflow, env *Environment, opts ...BuildOption) (*Model, error) {
	if err := w.Validate(env); err != nil {
		return nil, err
	}
	opt := buildOptions{collapseScale: 1}
	for _, o := range opts {
		o(&opt)
	}
	m, err := buildChart(w.Chart, w.Profiles, env, opt)
	if err != nil {
		return nil, err
	}
	m.Workflow = w
	return m, nil
}

// BuildAll builds every workflow of a mix against env, in order: the
// models a perf.Analysis aggregates.
func BuildAll(flows []*Workflow, env *Environment, opts ...BuildOption) ([]*Model, error) {
	models := make([]*Model, len(flows))
	for i, w := range flows {
		m, err := Build(w, env, opts...)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}

// collapseStages moment-matches the Erlang stage count of a collapsed
// subworkflow state: k ≈ mean²/variance, clamped to
// [minCollapseStages, maxCollapseStages]. The clamping happens in FLOAT
// space: converting mean²/variance to int first is platform-defined for
// values beyond the int range (a near-deterministic subworkflow with
// variance ~1e-300 produces ~1e300), and on amd64 yields the most
// negative int — which used to skip the max clamp, fail the min check,
// and silently degenerate the state to a single heavy-tailed
// exponential. ok=false keeps the paper's single exponential state;
// clamped reports a hit of the maxCollapseStages cap.
func collapseStages(maxR, variance float64) (stages int, clamped, ok bool) {
	if !(maxR > 0) || !(variance > 0) {
		return 1, false, false
	}
	k := math.Round(maxR * maxR / variance)
	if math.IsNaN(k) {
		return 1, false, false
	}
	if k > maxCollapseStages {
		return maxCollapseStages, true, true
	}
	if k < minCollapseStages {
		return 1, false, false
	}
	return int(k), false, true
}

// buildChart recursively maps a chart (workflow or subworkflow) onto a
// Model.
func buildChart(chart *statechart.Chart, profiles map[string]ActivityProfile, env *Environment, opt buildOptions) (*Model, error) {
	order, index, err := classifyStates(chart)
	if err != nil {
		return nil, err
	}
	abs := len(order)

	// Collapse nested subworkflows first (Section 4.2.2): the parent
	// state's residence time is the maximum of the parallel subworkflows'
	// turnaround times and its load is the sum of their expected request
	// vectors. The collapsed residence keeps the dominant subworkflow's
	// turnaround *distribution* shape as well: an Erlang stage count
	// moment-matched to that subworkflow (k ≈ mean²/variance) replaces
	// the single exponential residence, so a subworkflow made of long
	// low-variance phases does not degenerate into a heavy-tailed
	// exponential whose short draws compress all of its service requests
	// into a burst. Activity states take their DurationStages. Mean
	// residence, visits and expected requests are invariant in the stage
	// count; the variance reads it.
	stages := make([]int, abs)
	h := linalg.NewVector(abs + 1)
	subLoad := make([]linalg.Vector, abs) // collapsed states' summed requests
	clampedStages := 0
	for i, name := range order {
		s := chart.States[name]
		if s.Activity != "" {
			prof := profiles[s.Activity]
			stages[i], h[i] = max(prof.DurationStages, 1), prof.MeanDuration
			continue
		}
		stages[i], subLoad[i] = 1, linalg.NewVector(env.K())
		var dominant *Model
		for _, sub := range s.Subcharts {
			subModel, err := buildChart(sub, profiles, env, opt)
			if err != nil {
				return nil, err
			}
			if r := subModel.Turnaround(); r > h[i] {
				h[i] = r
				dominant = subModel
			}
			for x, r := range subModel.requests {
				subLoad[i][x] += r
			}
			clampedStages += subModel.clampedStages
		}
		if dominant != nil && h[i] > 0 {
			if k, clamped, ok := collapseStages(h[i], dominant.variance); ok {
				stages[i] = k
				if clamped {
					clampedStages++
				}
			}
		}
		// Fault-injection hook (crossval): scale the collapsed residence
		// after moment matching, as a broken collapse would.
		h[i] *= opt.collapseScale
	}

	// Pre-flight: the stage chain (one state per Erlang stage) must fit
	// the budget before the chain is allocated, with the running sum
	// guarded against overflow from adversarial DurationStages values.
	total := 0
	for _, k := range stages {
		if k > (1<<62)-total {
			total = 1 << 62
			break
		}
		total += k
	}
	if err := wfmserr.Default.CheckMatrixDim("spec", total+1); err != nil {
		return nil, wfmserr.Wrap(err, wfmserr.CodeOf(err), "spec",
			"chart %q expands to too many CTMC states", chart.Name)
	}

	names := append(order, "s_A")
	chain := &ctmc.Chain{Arcs: make([][]ctmc.Arc, abs+1), H: h, Names: names}
	load := linalg.NewMatrix(env.K(), abs+1)
	second := linalg.NewVector(abs + 1)
	for i, name := range order {
		if act := chart.States[name].Activity; act != "" {
			for serverType, l := range profiles[act].Load {
				x, _ := env.Index(serverType)
				load.Set(x, i, l)
			}
		}
		for x, l := range subLoad[i] {
			load.Set(x, i, l)
		}
		second[i] = 2 * h[i] * h[i] // exponential: E[R²] = 2H²
		if k := stages[i]; k > 1 {
			second[i] = h[i] * h[i] * (1 + 1/float64(k)) // Erlang-k: H²(1 + 1/k)
		}
	}

	// Transition probabilities. An edge into the pseudo final state
	// retargets to s_A, one back into the pseudo initial state re-enters
	// the spliced-in first execution state, and a real final state
	// absorbs with probability one.
	for _, t := range chart.Transitions {
		from, ok := index[t.From]
		if !ok {
			continue // the spliced pseudo initial state
		}
		to, ok := index[t.To]
		switch {
		case ok:
		case t.To == chart.Final:
			to = abs
		default:
			to = 0
		}
		chain.AddArc(from, to, t.Prob)
	}
	if i, ok := index[chart.Final]; ok {
		chain.AddArc(i, abs, 1)
	}

	turnaround, variance, visits, err := ctmc.TurnaroundAndVisits(chain, second)
	if err != nil {
		return nil, fmt.Errorf("spec: chart %q: %w", chart.Name, err)
	}
	// Each state's load is added once per stage, l/k at a time, as the
	// stage chain sums it: the request vector is then the same float on
	// either chain, and the corpus files, whose arrival rates the
	// importer scales by it, reproduce byte for byte. A zero share adds
	// +0 to a sum that starts at +0 and only grows: skipping it is exact.
	requests := linalg.NewVector(env.K())
	for x := range requests {
		for i, k := range stages {
			perStage := visits[i] * (load.At(x, i) / float64(k))
			if perStage == 0 {
				continue
			}
			for range k {
				requests[x] += perStage
			}
		}
	}
	if total == abs {
		stages = nil
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
		stages:        stages,
	}, nil
}

// classifyStates returns the chart's CTMC states in order — the initial
// execution state first (after splicing a pseudo initial state), then
// the other states that invoke an activity or embed subworkflows in
// StateNames order — and their indices. Only the initial and final
// states may be pseudo-states; the final one becomes s_A. It walks
// StateNames, so the state an error names does not depend on map order.
func classifyStates(chart *statechart.Chart) (order []string, index map[string]int, err error) {
	real := func(name string) bool {
		s := chart.States[name]
		return s.Activity != "" || len(s.Subcharts) > 0
	}
	names := chart.StateNames()
	order = make([]string, 0, len(names)+1) // room for s_A
	for _, name := range names {
		if real(name) {
			order = append(order, name)
		} else if name != chart.Initial && name != chart.Final {
			return nil, nil, fmt.Errorf("spec: chart %q: state %q has neither an activity nor a subworkflow; only the initial and final states may be pseudo-states", chart.Name, name)
		}
	}
	if initial := chart.Initial; !real(initial) {
		// Splice the pseudo initial state: the paper's CTMC starts in
		// the first execution state, so the pseudo state must lead to
		// exactly one real state with probability one.
		out := chart.Outgoing(initial)
		if len(out) != 1 {
			return nil, nil, fmt.Errorf("spec: chart %q: pseudo initial state %q must have exactly one outgoing transition, has %d (the CTMC needs a single initial execution state)", chart.Name, initial, len(out))
		}
		if !real(out[0].To) {
			return nil, nil, fmt.Errorf("spec: chart %q: initial transition leads to pseudo-state %q; the workflow performs no work", chart.Name, out[0].To)
		}
		i := slices.Index(order, out[0].To)
		copy(order[1:i+1], order[:i])
		order[0] = out[0].To
	}
	index = make(map[string]int, len(order))
	for i, name := range order {
		index[name] = i
	}
	return order, index, nil
}
