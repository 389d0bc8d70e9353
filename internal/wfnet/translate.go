package wfnet

import (
	"fmt"

	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
)

// FromChart translates a statechart into a free-choice probabilistic
// workflow net, keeping AND-states as real fork/join concurrency
// instead of collapsing them (Section 4.2.2 of the paper).
//
// The translation mirrors the conventions of spec.Build so the two
// routes model the same stochastic process wherever no true concurrency
// is involved:
//
//   - an activity state with Erlang stage count k becomes k places
//     chained by timed transitions of rate k/d (d the mean duration);
//     the chart's outgoing branches leave the LAST stage as timed
//     transitions of rate p·k/d each, folding the branch probability
//     into the exponential race exactly like the embedded CTMC;
//   - a subchart (AND) state becomes an immediate fork transition that
//     puts one token into each orthogonal component's entry place, the
//     recursively translated component nets, and an immediate join
//     transition consuming every component's exit place — the marking
//     graph then carries the full joint distribution of the branch
//     turnarounds instead of the collapsed max-of-means;
//   - the chart-level branches leaving an AND state are immediate
//     weight-resolved transitions from the join's output place (a
//     single shared input place, so the cluster is free-choice);
//   - pseudo initial states are spliced (they must have exactly one
//     outgoing transition, as in spec.Build), pseudo final states map
//     to the chart's exit place, and loops back to the pseudo initial
//     state re-enter the first real state.
//
// The resulting net is safe and free-choice by construction; Validate
// is still run as defense-in-depth.
func FromChart(chart *statechart.Chart, profiles map[string]spec.ActivityProfile) (*Net, error) {
	if err := chart.Validate(); err != nil {
		return nil, wfmserr.Wrap(err, wfmserr.CodeInvalidModel, "wfnet",
			"chart %q fails validation", chart.Name)
	}
	b := &netBuilder{profiles: profiles}
	src := b.place("source")
	sink := b.place("sink")
	if err := b.chart(chart, src, sink, chart.Name); err != nil {
		return nil, err
	}
	n := &Net{PlaceNames: b.places, Transitions: b.trans, Initial: src, Final: sink}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// FromWorkflow translates w's chart using its activity profiles.
func FromWorkflow(w *spec.Workflow) (*Net, error) {
	return FromChart(w.Chart, w.Profiles)
}

type netBuilder struct {
	profiles map[string]spec.ActivityProfile
	places   []string
	trans    []Transition
}

func (b *netBuilder) place(name string) int {
	b.places = append(b.places, name)
	return len(b.places) - 1
}

func (b *netBuilder) add(t Transition) { b.trans = append(b.trans, t) }

// chart translates one chart level into the net: a token arriving on
// entry starts the chart, a token on exit means it completed. prefix
// namespaces place/transition labels across nesting levels.
func (b *netBuilder) chart(chart *statechart.Chart, entry, exit int, prefix string) error {
	initial, finals, real, err := classifyStates(chart)
	if err != nil {
		return err
	}

	// One entry place per real state, allocated up front so transitions
	// can target states in any order. Activity states get their Erlang
	// stage places; AND states get fork/join scaffolding on demand.
	type stateNet struct {
		entry int // tokens arriving here start the state
		out   int // place the state's outgoing cluster consumes
	}
	nets := make(map[string]*stateNet, len(real))
	for _, name := range chart.StateNames() {
		if !real[name] {
			continue
		}
		s := chart.States[name]
		label := prefix + "/" + name
		sn := &stateNet{}
		switch {
		case s.Activity != "":
			prof := b.profiles[s.Activity]
			k := prof.DurationStages
			if k < 1 {
				k = 1
			}
			d := prof.MeanDuration
			if !(d > 0) {
				return wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
					"chart %q activity %q has non-positive mean duration %v", chart.Name, s.Activity, d)
			}
			stage0 := b.place(label)
			prev := stage0
			for stage := 1; stage < k; stage++ {
				next := b.place(fmt.Sprintf("%s#%d", label, stage+1))
				b.add(Transition{
					Name: fmt.Sprintf("%s.stage%d", label, stage),
					In:   []int{prev}, Out: []int{next},
					Rate: float64(k) / d,
				})
				prev = next
			}
			sn.entry, sn.out = stage0, prev
		default: // AND state: one or more orthogonal subcharts
			fork := b.place(label + ".fork")
			join := b.place(label + ".join")
			forkT := Transition{
				Name: label + ".fork",
				In:   []int{fork},
				Rate: 0, Weight: 1,
			}
			joinT := Transition{
				Name: label + ".join",
				Out:  []int{join},
				Rate: 0, Weight: 1,
			}
			for bi, sub := range s.Subcharts {
				subEntry := b.place(fmt.Sprintf("%s.branch%d.entry", label, bi))
				subExit := b.place(fmt.Sprintf("%s.branch%d.exit", label, bi))
				forkT.Out = append(forkT.Out, subEntry)
				joinT.In = append(joinT.In, subExit)
				if err := b.chart(sub, subEntry, subExit, label+"/"+sub.Name); err != nil {
					return err
				}
			}
			b.add(forkT)
			b.add(joinT)
			sn.entry, sn.out = fork, join
		}
		nets[name] = sn
	}

	// Entry splice: an immediate transition moves the arriving token to
	// the first real state (mirroring classifyStates' pseudo-initial
	// splice — the chart's work starts there).
	b.add(Transition{
		Name: prefix + ".start",
		In:   []int{entry}, Out: []int{nets[initial].entry},
		Rate: 0, Weight: 1,
	})

	// target resolves a chart transition destination to a net place.
	target := func(to string) (int, error) {
		switch {
		case real[to]:
			return nets[to].entry, nil
		case finals[to]:
			return exit, nil
		case to == chart.Initial:
			// Loop back to the pseudo initial state re-enters the first
			// real state, as in spec.Build.
			return nets[initial].entry, nil
		default:
			return 0, fmt.Errorf("wfnet: internal error: transition into pseudo-state %q", to)
		}
	}

	for _, name := range chart.StateNames() {
		if !real[name] {
			continue
		}
		s := chart.States[name]
		sn := nets[name]
		label := prefix + "/" + name
		out := chart.Outgoing(name)
		if len(out) == 0 {
			// A real final state absorbs with probability one.
			if name != chart.Final {
				return wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
					"chart %q state %q is a dead end", chart.Name, name)
			}
			out = nil
		}
		// An activity's exit cluster is timed from its last stage: rate
		// p·k/d per branch folds branch probability into the race. An AND
		// state's join output place routes via an immediate
		// weight-resolved cluster (single shared input place).
		timed := s.Activity != ""
		var total float64
		if timed {
			prof := b.profiles[s.Activity]
			total = float64(max(prof.DurationStages, 1)) / prof.MeanDuration
		}
		route := func(name string, to int, p float64) {
			tr := Transition{Name: name, In: []int{sn.out}, Out: []int{to}}
			if timed {
				tr.Rate = p * total
			} else {
				tr.Weight = p
			}
			b.add(tr)
		}
		if len(out) == 0 {
			route(label+".finish", exit, 1)
			continue
		}
		for ti, t := range out {
			to, err := target(t.To)
			if err != nil {
				return err
			}
			route(fmt.Sprintf("%s.exit%d->%s", label, ti, t.To), to, t.Prob)
		}
	}
	return nil
}

// classifyStates mirrors spec.Build's state classification: the spliced
// initial execution state, the set of pseudo final states, and the set
// of real (activity or subchart) states. Kept separate from package
// spec's unexported helper so the two routes stay independent.
func classifyStates(chart *statechart.Chart) (initial string, finals map[string]bool, real map[string]bool, err error) {
	real = make(map[string]bool, len(chart.States))
	finals = map[string]bool{}
	for name, s := range chart.States {
		if s.Activity != "" || len(s.Subcharts) > 0 {
			real[name] = true
			continue
		}
		switch name {
		case chart.Initial, chart.Final:
		default:
			return "", nil, nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
				"chart %q: state %q has neither an activity nor a subworkflow", chart.Name, name)
		}
	}
	if !real[chart.Final] {
		finals[chart.Final] = true
	}
	initial = chart.Initial
	if !real[initial] {
		out := chart.Outgoing(initial)
		if len(out) != 1 {
			return "", nil, nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
				"chart %q: pseudo initial state %q must have exactly one outgoing transition, has %d",
				chart.Name, initial, len(out))
		}
		if !real[out[0].To] {
			return "", nil, nil, wfmserr.New(wfmserr.CodeInvalidModel, "wfnet",
				"chart %q: initial transition leads to pseudo-state %q; the workflow performs no work",
				chart.Name, out[0].To)
		}
		initial = out[0].To
	}
	return initial, finals, real, nil
}
