package calibrate

import (
	"fmt"
	"sort"

	"performa/internal/audit"
	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
)

// edgeKey identifies an observed control-flow transition.
type edgeKey struct{ from, to string }

// DiscoverWorkflow reconstructs a complete workflow specification from an
// audit trail alone: the control-flow graph and its branch probabilities
// from the observed state sequences, the state↔activity association,
// per-activity durations from the residence times, the load matrix from
// the activity-tagged service requests, and the arrival rate from the
// instance starts. This is the strongest form of the paper's Section 3.2
// observation that model inputs "can be derived from audit trails of
// previous workflow executions": no designer model is needed at all once
// the system is operational.
//
// Only flat workflows (no nested subcharts) are reconstructable: a trail
// interleaves subchart records under their own chart names without the
// parent linkage the hierarchy would need. Discovering a trail produced
// by a nested workflow yields the top-level chart with the nested states
// missing their activities, which fails validation — callers get a clear
// error rather than a wrong model.
func DiscoverWorkflow(trail *audit.Trail, workflowName string, env *spec.Environment) (*spec.Workflow, error) {
	recs := trail.Records()
	if len(recs) == 0 {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "calibrate", "empty trail: nothing to discover from")
	}

	transitions := map[edgeKey]uint64{}
	departures := map[string]uint64{}
	terminations := map[string]uint64{}
	entries := map[string]uint64{}
	firstStates := map[string]uint64{} // initial-state candidates
	stateActivity := map[string]map[string]uint64{}
	residence := map[string]*MomentPair{}
	reqPerActivity := map[string]map[string]float64{} // activity → type → total requests
	activityRuns := map[string]uint64{}

	curState := map[uint64]string{}
	entered := map[uint64]float64{}
	lastLeft := map[uint64]string{}
	seenInstance := map[uint64]bool{}
	chartName := workflowName
	var starts uint64 // instance starts of this workflow, for the arrival rate
	var firstStart, lastStart float64

	for _, r := range recs {
		if r.Workflow != "" && r.Workflow != workflowName {
			continue
		}
		switch r.Kind {
		case audit.InstanceStarted:
			if r.Workflow != workflowName {
				continue
			}
			// Records are in time order: the first start seen is the
			// earliest, the latest seen the last.
			if starts == 0 {
				firstStart = r.Time
			}
			lastStart = r.Time
			starts++
		case audit.StateEntered:
			if r.Chart != "" && r.Chart != chartName {
				// A nested subchart's records: the flat reconstruction
				// cannot place them.
				return nil, fmt.Errorf("calibrate: trail contains nested chart %q; only flat workflows are discoverable", r.Chart)
			}
			if !seenInstance[r.Instance] {
				seenInstance[r.Instance] = true
				firstStates[r.State]++
			}
			if from, ok := lastLeft[r.Instance]; ok {
				transitions[edgeKey{from, r.State}]++
				departures[from]++
				delete(lastLeft, r.Instance)
			}
			curState[r.Instance] = r.State
			entered[r.Instance] = r.Time
			entries[r.State]++
		case audit.StateLeft:
			if t0, ok := entered[r.Instance]; ok && curState[r.Instance] == r.State {
				mp := residence[r.State]
				if mp == nil {
					mp = &MomentPair{}
					residence[r.State] = mp
				}
				mp.Add(r.Time - t0)
				delete(entered, r.Instance)
			}
			lastLeft[r.Instance] = r.State
		case audit.ActivityStarted:
			if s, ok := curState[r.Instance]; ok {
				m := stateActivity[s]
				if m == nil {
					m = map[string]uint64{}
					stateActivity[s] = m
				}
				m[r.Activity]++
			}
			activityRuns[r.Activity]++
		case audit.ServiceRequest:
			if r.Activity == "" {
				continue
			}
			m := reqPerActivity[r.Activity]
			if m == nil {
				m = map[string]float64{}
				reqPerActivity[r.Activity] = m
			}
			m[r.ServerType]++
		case audit.InstanceCompleted:
			// The instance terminates from the state it last left or,
			// when it completes without leaving it (a simulator trail
			// enters the pseudo final state and stops), from the state
			// it is still in.
			if from, ok := lastLeft[r.Instance]; ok {
				terminations[from]++
				delete(lastLeft, r.Instance)
			} else if _, inside := entered[r.Instance]; inside {
				terminations[curState[r.Instance]]++
				delete(entered, r.Instance)
			}
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("calibrate: no state records for workflow %q in the trail", workflowName)
	}

	// The initial state is the (unique, for a valid workflow) state
	// instances enter first.
	initial, err := uniqueKey(firstStates, "initial state")
	if err != nil {
		return nil, err
	}

	// Pseudo-states: the source charts' initial and final states carry
	// no activity and appear in the trail as activity-less states.
	// Splice the entry pseudo-state (redirect the initial to its
	// successor) and fold exit pseudo-states into the discovered
	// chart's final state, exactly as the model mapping does.
	pseudo := map[string]bool{}
	for st := range entries {
		if len(stateActivity[st]) == 0 {
			pseudo[st] = true
		}
	}
	exitPseudo := map[string]bool{}
	for st := range pseudo {
		switch {
		case st == initial && departures[st] > 0:
			next, err := dominantSuccessor(transitions, st)
			if err != nil {
				return nil, err
			}
			initial = next
		case terminations[st] > 0 && departures[st] == 0:
			exitPseudo[st] = true
		default:
			return nil, fmt.Errorf("calibrate: state %q has no activity and is neither an entry nor an exit pseudo-state", st)
		}
	}
	// Rewrite the observed flow without the pseudo-states: transitions
	// into an exit pseudo-state become terminations of their source.
	for e, n := range transitions {
		if pseudo[e.from] {
			delete(transitions, e)
			continue
		}
		if exitPseudo[e.to] {
			terminations[e.from] += n
			delete(transitions, e)
		}
	}
	for st := range pseudo {
		delete(entries, st)
		delete(departures, st)
		delete(terminations, st)
	}
	// departures must keep counting the rewired edges.
	recount := map[string]uint64{}
	for e, n := range transitions {
		recount[e.from] += n
	}
	for st := range departures {
		departures[st] = recount[st]
	}

	// Assemble the chart: pseudo initial and final states plus the
	// observed execution states.
	chart := &statechart.Chart{
		Name:    workflowName,
		Initial: workflowName + "_INIT",
		Final:   workflowName + "_EXIT",
		States: map[string]*statechart.State{
			workflowName + "_INIT": {Name: workflowName + "_INIT"},
			workflowName + "_EXIT": {Name: workflowName + "_EXIT"},
		},
	}
	stateNames := make([]string, 0, len(entries))
	for s := range entries {
		stateNames = append(stateNames, s)
	}
	sort.Strings(stateNames)
	for _, s := range stateNames {
		act, err := uniqueKey(stateActivity[s], fmt.Sprintf("activity of state %q", s))
		if err != nil {
			return nil, err
		}
		chart.States[s] = &statechart.State{Name: s, Activity: act}
	}
	chart.Transitions = append(chart.Transitions, &statechart.Transition{
		From: chart.Initial, To: initial, Prob: 1,
	})
	for _, s := range stateNames {
		total := departures[s] + terminations[s]
		if total == 0 {
			return nil, fmt.Errorf("calibrate: state %q has no observed departures; trail too sparse", s)
		}
		// Deterministic transition order for reproducible charts.
		var outs []edgeKey
		for e := range transitions {
			if e.from == s {
				outs = append(outs, e)
			}
		}
		sort.Slice(outs, func(i, j int) bool { return outs[i].to < outs[j].to })
		for _, e := range outs {
			chart.Transitions = append(chart.Transitions, &statechart.Transition{
				From: s, To: e.to, Prob: float64(transitions[e]) / float64(total),
			})
		}
		if terms := terminations[s]; terms > 0 {
			chart.Transitions = append(chart.Transitions, &statechart.Transition{
				From: s, To: chart.Final, Prob: float64(terms) / float64(total),
			})
		}
	}
	if err := chart.Validate(); err != nil {
		return nil, fmt.Errorf("calibrate: discovered chart invalid: %w", err)
	}

	// Activity profiles: durations from state residences, loads from
	// the request counts per execution.
	profiles := map[string]spec.ActivityProfile{}
	for _, s := range stateNames {
		act := chart.States[s].Activity
		mp := residence[s]
		if mp == nil || mp.N == 0 {
			return nil, fmt.Errorf("calibrate: no residence observations for state %q", s)
		}
		prof := spec.ActivityProfile{Name: act, MeanDuration: mp.Mean, Load: map[string]float64{}}
		if runs := activityRuns[act]; runs > 0 {
			for serverType, count := range reqPerActivity[act] {
				if _, ok := env.Index(serverType); !ok {
					return nil, fmt.Errorf("calibrate: trail references unknown server type %q", serverType)
				}
				prof.Load[serverType] = count / float64(runs)
			}
		}
		profiles[act] = prof
	}

	flow := &spec.Workflow{
		Name:     workflowName,
		Chart:    chart,
		Profiles: profiles,
	}
	// Arrival rate: (n−1) inter-arrival gaps over the start-to-start
	// span, the estimator's formula (stream.Estimator.Snapshot).
	if span := lastStart - firstStart; starts >= 2 && span > 0 {
		flow.ArrivalRate = float64(starts-1) / span
	}
	if err := flow.Validate(env); err != nil {
		return nil, fmt.Errorf("calibrate: discovered workflow invalid: %w", err)
	}
	return flow, nil
}

// dominantSuccessor returns the unique successor of a spliced entry
// pseudo-state.
func dominantSuccessor(transitions map[edgeKey]uint64, from string) (string, error) {
	counts := map[string]uint64{}
	for e, n := range transitions {
		if e.from == from {
			counts[e.to] += n
		}
	}
	return uniqueKey(counts, fmt.Sprintf("successor of entry state %q", from))
}

// uniqueKey returns the dominant key of a count map, erroring when the
// map is empty or ambiguous (no key holds a strict majority).
func uniqueKey(counts map[string]uint64, what string) (string, error) {
	if len(counts) == 0 {
		return "", fmt.Errorf("calibrate: no observations for %s", what)
	}
	var best string
	var bestN, total uint64
	for k, n := range counts {
		total += n
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	if 2*bestN <= total {
		return "", fmt.Errorf("calibrate: ambiguous %s: %v", what, counts)
	}
	return best, nil
}
