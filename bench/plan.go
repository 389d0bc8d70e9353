package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"performa/internal/config"
	"performa/internal/performability"
	"performa/internal/sensitivity"
	"performa/internal/server"
	"performa/internal/spec"
	wfmodels "performa/internal/workload"
)

// planSearch sends planning requests over a small chart and a large
// configuration space: the 7-type extended environment, where one search
// assesses hundreds of candidates and each candidate sweeps thousands of
// degraded states. The chart has 10 states, so building it costs nothing
// and the time is in the performability evaluator and the planners. One
// client, because the planners' worker pools already take every core.
type planSearch struct {
	p params

	plans []*plan // by arrival rate
	order []int   // seeded order of the plans within a round
}

// planRates are the arrival rates (per minute) of the EP workflow. The
// search space grows with the rate; branch-and-bound at 100/min alone
// takes longer than a round may (2.7 s), so the rates stop at 50.
var planRates = []float64{8, 25, 50}

var planGoals = server.GoalsJSON{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}

// plan is the three operations on one system, sent in this order:
// greedy, then branch-and-bound capped one replica above the greedy
// answer, then the sensitivity table at the greedy answer (which needs
// the model the first two left resident).
type plan struct {
	sys *system

	// Direct planner results the replies must equal.
	greedy *config.Recommendation
	bnb    *config.Recommendation
	table  *sensitivity.Table

	greedyBody     []byte
	bnbBody        []byte
	sensitivityURL string // path and query
}

const opsPerPlan = 3

func (w *planSearch) clients() int { return 1 }

func (w *planSearch) rates() []float64 {
	if w.p.smoke {
		return planRates[:1]
	}
	return planRates
}

func (pl *plan) bnbConstraints() config.Constraints {
	maxReplicas := make([]int, len(pl.greedy.Config.Replicas))
	for x, y := range pl.greedy.Config.Replicas {
		maxReplicas[x] = y + 1
	}
	return config.Constraints{MaxReplicas: maxReplicas}
}

func (w *planSearch) oracle() error {
	env := wfmodels.ExtendedEnvironment()
	for _, rate := range w.rates() {
		name := fmt.Sprintf("ep-distributed-%g", rate)
		sys, err := newSystem(name, env, []*spec.Workflow{wfmodels.EPDistributed(rate)}, nil)
		if err != nil {
			return err
		}
		pl := &plan{sys: sys}
		d, err := buildDirect(nil, sys.env, sys.flows)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if pl.greedy, err = d.greedy(nil, goalsOf(planGoals), config.Constraints{}); err != nil {
			return fmt.Errorf("%s: greedy: %w", name, err)
		}
		if pl.bnb, err = d.branchAndBound(nil, goalsOf(planGoals), pl.bnbConstraints()); err != nil {
			return fmt.Errorf("%s: branch and bound: %w", name, err)
		}
		if pl.table, err = d.sensitivity(nil, pl.greedy.Config.Replicas); err != nil {
			return fmt.Errorf("%s: sensitivity: %w", name, err)
		}
		w.plans = append(w.plans, pl)
	}
	return nil
}

func (w *planSearch) setup() error {
	for _, pl := range w.plans {
		pl.greedyBody = mustJSON(server.RecommendRequest{System: *pl.sys.doc, Planner: "greedy", Goals: planGoals})
		pl.bnbBody = mustJSON(server.RecommendRequest{
			System: *pl.sys.doc, Planner: "bnb", Goals: planGoals,
			Constraints: server.ConstraintsJSON{MaxReplicas: pl.bnbConstraints().MaxReplicas},
		})
		replicas := make([]string, len(pl.greedy.Config.Replicas))
		for x, y := range pl.greedy.Config.Replicas {
			replicas[x] = strconv.Itoa(y)
		}
		pl.sensitivityURL = "/v1/sensitivity?fingerprint=" + pl.sys.fingerprint + "&config=" + strings.Join(replicas, ",")
	}
	w.order = shuffled(w.p.seed, len(w.plans))
	return nil
}

func (w *planSearch) teardown() {}

// recommendReply is the part of server.RecommendResponse the checks read.
type recommendReply struct {
	Config      []int `json:"config"`
	Evaluations int   `json:"evaluations"`
}

func checkRecommendation(raw []byte, want *config.Recommendation) error {
	var reply recommendReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return err
	}
	if !sameInts(reply.Config, want.Config.Replicas) {
		return fmt.Errorf("config %v, direct planner gives %v", reply.Config, want.Config.Replicas)
	}
	if reply.Evaluations != want.Evaluations {
		return fmt.Errorf("%d evaluations, direct planner takes %d", reply.Evaluations, want.Evaluations)
	}
	return nil
}

func checkSensitivity(raw []byte, want *sensitivity.Table) error {
	var reply server.SensitivityResponse
	if err := json.Unmarshal(raw, &reply); err != nil {
		return err
	}
	if !sameBits(float64(reply.BaseMaxWaiting), want.BaseMaxWaiting) ||
		!sameBits(float64(reply.BaseUnavailability), want.BaseUnavailability) {
		return fmt.Errorf("base point (%v, %v), direct table has (%v, %v)",
			float64(reply.BaseMaxWaiting), float64(reply.BaseUnavailability), want.BaseMaxWaiting, want.BaseUnavailability)
	}
	if len(reply.Entries) != len(want.Entries) {
		return fmt.Errorf("%d entries, direct table has %d", len(reply.Entries), len(want.Entries))
	}
	for n, e := range reply.Entries {
		d := want.Entries[n]
		if e.Kind != string(d.Kind) || e.Index != d.Index ||
			!sameBits(float64(e.DMaxWaiting), d.DMaxWaiting) || !sameBits(float64(e.DUnavailability), d.DUnavailability) {
			return fmt.Errorf("entry %d is %s[%d] (%v, %v), direct table has %s[%d] (%v, %v)", n,
				e.Kind, e.Index, float64(e.DMaxWaiting), float64(e.DUnavailability),
				d.Kind, d.Index, d.DMaxWaiting, d.DUnavailability)
		}
	}
	return nil
}

func (w *planSearch) round(rec *roundRec) error {
	// A fresh server per round: a resident evaluator would answer the
	// second round's searches from its state cache.
	return freshServer(server.Options{}, func(url string, call *caller) error {
		for n, g := range w.order {
			pl := w.plans[g]
			var raw []byte
			rec.op(opsPerPlan*n, func() (err error) {
				raw, err = call.post(url+"/v1/recommend", pl.greedyBody)
				return err
			}, func() error { return checkRecommendation(raw, pl.greedy) })
			rec.op(opsPerPlan*n+1, func() (err error) {
				raw, err = call.post(url+"/v1/recommend", pl.bnbBody)
				return err
			}, func() error { return checkRecommendation(raw, pl.bnb) })
			rec.op(opsPerPlan*n+2, func() (err error) {
				raw, err = call.get(url + pl.sensitivityURL)
				return err
			}, func() error { return checkSensitivity(raw, pl.table) })
		}
		return nil
	})
}

func (w *planSearch) replay(rr *replayRun) error {
	for n, g := range w.order {
		pl := w.plans[g]
		c := rr.request(opsPerPlan * n)
		var d *direct
		var greedy *config.Recommendation
		err := c.under(spanReplay, func(c *replayCtx) error {
			env, flows, err := decodeSystem(c, pl.sys.docJSON)
			if err != nil {
				return err
			}
			if d, err = buildDirect(c, env, flows); err != nil {
				return err
			}
			greedy, err = d.greedy(c, goalsOf(planGoals), config.Constraints{})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pl.sys.name, err)
		}
		err = rr.request(opsPerPlan*n+1).under(spanReplay, func(c *replayCtx) error {
			if _, _, err := decodeSystem(c, pl.sys.docJSON); err != nil {
				return err
			}
			_, err := d.branchAndBound(c, goalsOf(planGoals), pl.bnbConstraints())
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pl.sys.name, err)
		}
		err = rr.request(opsPerPlan*n+2).under(spanReplay, func(c *replayCtx) error {
			_, err := d.sensitivity(c, greedy.Config.Replicas)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pl.sys.name, err)
		}
		d.countEvaluatorSince(c, performability.CacheStats{})

		// What the greedy search did per candidate, on the candidates it
		// reports in its trace.
		var candidates [][]int
		for _, step := range greedy.Trace {
			candidates = append(candidates, step.Config.Replicas)
		}
		err = c.under(spanProbe, func(c *replayCtx) error {
			if err := probeBuild(c, d); err != nil {
				return err
			}
			return probeEvaluate(c, d, candidates, false)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pl.sys.name, err)
		}
	}
	c := rr.request(-1)
	return c.under(spanProbe, probeJointSolve)
}
