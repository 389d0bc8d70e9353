package stream

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
)

// referenceEstimator is the fold Estimator replaced: the in-flight state
// in six maps, keyed by instance and by (instance, chart) and (instance,
// activity), and pruned map by map when an instance completes. It folds
// the aggregates into agg, whose Snapshot and ScoreAgainst then read them.
type referenceEstimator struct {
	agg          *Estimator
	flows        map[instChart]chartFlow
	actStart     map[instAct][]float64
	instStart    map[uint64]float64
	instWorkflow map[uint64]string
	instCharts   map[uint64][]string
	instActs     map[uint64][]string
}

type instChart struct {
	instance uint64
	chart    string
}

type instAct struct {
	instance uint64
	activity string
}

func newReferenceEstimator(opts Options) *referenceEstimator {
	return &referenceEstimator{
		agg:          NewEstimator(opts),
		flows:        map[instChart]chartFlow{},
		actStart:     map[instAct][]float64{},
		instStart:    map[uint64]float64{},
		instWorkflow: map[uint64]string{},
		instCharts:   map[uint64][]string{},
		instActs:     map[uint64][]string{},
	}
}

func (e *referenceEstimator) observe(r *audit.Record) {
	g := e.agg
	g.events++
	if !g.hasSpan {
		g.first, g.last = r.Time, r.Time
		g.hasSpan = true
	}
	if r.Time < g.first {
		g.first = r.Time
	}
	if r.Time > g.last {
		g.last = r.Time
	}
	switch r.Kind {
	case audit.InstanceStarted:
		a := g.starts[r.Workflow]
		if a == nil {
			a = &arrivalTrack{}
			g.starts[r.Workflow] = a
		}
		if a.count == 0 || r.Time < a.first {
			a.first = r.Time
		}
		if r.Time > a.last {
			a.last = r.Time
		}
		a.count++
		if len(e.instStart) >= g.opts.MaxInFlight {
			g.dropped++
			return
		}
		e.instStart[r.Instance] = r.Time
		e.instWorkflow[r.Instance] = r.Workflow
	case audit.InstanceCompleted:
		if t0, ok := e.instStart[r.Instance]; ok {
			wf := r.Workflow
			if wf == "" {
				wf = e.instWorkflow[r.Instance]
			}
			mp := g.turnarounds[wf]
			if mp == nil {
				mp = &calibrate.MomentPair{}
				g.turnarounds[wf] = mp
			}
			mp.Add(r.Time - t0)
		}
		e.prune(r.Instance)
	case audit.StateEntered:
		key := instChart{r.Instance, r.Chart}
		e.noteChart(r.Instance, r.Chart)
		f := e.flows[key]
		if f.hasLeft {
			g.transitions[calibrate.TransitionKey{Chart: r.Chart, From: f.lastLeft, To: r.State}]++
			g.departures[[2]string{r.Chart, f.lastLeft}]++
		}
		e.flows[key] = chartFlow{state: r.State, enteredAt: r.Time, inState: true}
	case audit.StateLeft:
		key := instChart{r.Instance, r.Chart}
		e.noteChart(r.Instance, r.Chart)
		f := e.flows[key]
		if f.inState && f.state == r.State {
			sk := [2]string{r.Chart, r.State}
			mp := g.residence[sk]
			if mp == nil {
				mp = &calibrate.MomentPair{}
				g.residence[sk] = mp
			}
			mp.Add(r.Time - f.enteredAt)
			f.inState = false
		}
		f.lastLeft, f.hasLeft = r.State, true
		e.flows[key] = f
	case audit.ActivityStarted:
		k := instAct{r.Instance, r.Activity}
		if _, ok := e.actStart[k]; !ok {
			e.instActs[r.Instance] = append(e.instActs[r.Instance], r.Activity)
		}
		e.actStart[k] = append(e.actStart[k], r.Time)
	case audit.ActivityCompleted:
		k := instAct{r.Instance, r.Activity}
		if starts := e.actStart[k]; len(starts) > 0 {
			mp := g.activities[r.Activity]
			if mp == nil {
				mp = &calibrate.MomentPair{}
				g.activities[r.Activity] = mp
			}
			mp.Add(r.Time - starts[0])
			e.actStart[k] = starts[1:]
		}
	case audit.ServiceRequest:
		sm := g.servers[r.ServerType]
		if sm == nil {
			sm = &serverMoments{}
			g.servers[r.ServerType] = sm
		}
		sm.service.Add(r.Service)
		sm.waiting.Add(r.Waiting)
	}
}

func (e *referenceEstimator) noteChart(instance uint64, chart string) {
	for _, c := range e.instCharts[instance] {
		if c == chart {
			return
		}
	}
	e.instCharts[instance] = append(e.instCharts[instance], chart)
}

func (e *referenceEstimator) prune(instance uint64) {
	for _, chart := range e.instCharts[instance] {
		delete(e.flows, instChart{instance, chart})
	}
	delete(e.instCharts, instance)
	for _, act := range e.instActs[instance] {
		delete(e.actStart, instAct{instance, act})
	}
	delete(e.instActs, instance)
	delete(e.instStart, instance)
	delete(e.instWorkflow, instance)
}

// TestEstimatorMatchesReference holds the estimator to
// referenceEstimator, the map-based fold it replaced, over random record
// sequences on a few instances, folded in random batches: duplicate
// starts, completions without a start, activity completions without a
// start, repeated starts of one activity, charts, activities, server
// types and workflows the baseline does not know, times out of order,
// and MaxInFlight from 1 to 3 (or the default). After every batch the
// counters must agree, and at the end the snapshot and the drift score,
// float for float by bit pattern.
func TestEstimatorMatchesReference(t *testing.T) {
	kinds := []audit.EventKind{audit.InstanceStarted, audit.InstanceCompleted, audit.StateEntered,
		audit.StateLeft, audit.ActivityStarted, audit.ActivityCompleted, audit.ServiceRequest}
	charts, states := []string{"C", "D", "X"}, []string{"s0", "s1", "s2"}
	acts, types, flows := []string{"A", "B", "Z"}, []string{"orb", "eng", "zzz"}, []string{"wf", "wg", ""}
	base := &Baseline{
		Transitions: map[calibrate.TransitionKey]float64{
			{Chart: "C", From: "s0", To: "s1"}: 0.5, {Chart: "C", From: "s0", To: "s2"}: 0.5,
			{Chart: "C", From: "s1", To: "s2"}: 1, {Chart: "D", From: "s0", To: "s1"}: 1,
		},
		Activities: map[string]float64{"A": 1, "B": 2},
		Service:    map[string]float64{"orb": 0.5, "eng": 1},
		Arrivals:   map[string]float64{"wf": 1, "wg": 2},
	}
	th := Thresholds{MinDepartures: 1, MinSamples: 1}
	rng := rand.New(rand.NewPCG(53, 1))
	pick := func(s []string) string { return s[rng.IntN(len(s))] }
	for seq := range 20000 {
		opts := Options{MaxInFlight: rng.IntN(4)}
		got, want := NewEstimator(opts), newReferenceEstimator(opts)
		recs := make([]audit.Record, 1+rng.IntN(60))
		at := 0.0
		for i := range recs {
			if at += rng.Float64(); rng.IntN(10) == 0 {
				at -= 3 * rng.Float64()
			}
			recs[i] = audit.Record{
				Kind: kinds[rng.IntN(len(kinds))], Time: at, Workflow: pick(flows),
				Instance: uint64(1 + rng.IntN(5)), Chart: pick(charts), State: pick(states),
				Activity: pick(acts), ServerType: pick(types),
				Waiting: rng.Float64(), Service: rng.ExpFloat64(),
			}
		}
		for rest := recs; len(rest) > 0; {
			batch := rest[:1+rng.IntN(len(rest))]
			rest = rest[len(batch):]
			got.ObserveBatch(batch)
			for i := range batch {
				want.observe(&batch[i])
			}
			if got.Events() != want.agg.events || got.Dropped() != want.agg.dropped || got.InFlight() != len(want.instStart) {
				t.Fatalf("sequence %d (MaxInFlight %d): events, dropped, in flight = %d, %d, %d; reference %d, %d, %d\n%+v",
					seq, opts.MaxInFlight, got.Events(), got.Dropped(), got.InFlight(),
					want.agg.events, want.agg.dropped, len(want.instStart), recs)
			}
		}
		var g, w bytes.Buffer
		for _, side := range []struct {
			e   *Estimator
			out *bytes.Buffer
		}{{got, &g}, {want.agg, &w}} {
			snap, err := side.e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			writeEstimates(side.out, snap)
			writeScore(side.out, 0, side.e.ScoreAgainst(base, th))
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("sequence %d (MaxInFlight %d): estimates differ\n got %s\nwant %s\n%+v",
				seq, opts.MaxInFlight, g.Bytes(), w.Bytes(), recs)
		}
	}
}
