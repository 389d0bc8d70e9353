package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/config"
	"performa/internal/performability"
	"performa/internal/server"
	"performa/internal/spec"
	"performa/internal/stream"
)

// driftReplan runs the live loop end to end: a batch of service times at
// twice the designed mean crosses the drift threshold of a registered
// deployment, the controller recalibrates, rebuilds the model from the
// streamed estimates, re-plans from the deployed configuration, and
// publishes an advisory. The operation is what an operator waits for:
// posting the batch until the advisory can be read. It reaches the
// cold-corpus build through a different door.
type driftReplan struct {
	p params

	systems []*system
	goals   []server.GoalsJSON       // by system: twice the deployed waiting
	want    []*config.Recommendation // by system: the direct re-plan

	order        []int
	deployBodies [][]byte
	driftBodies  [][]byte
}

const (
	// driftSamples is comfortably above the detector's 25-sample
	// minimum, so one batch crosses.
	driftSamples = 60
	pollEvery    = time.Millisecond
	pollTimeout  = 30 * time.Second
)

// driftSkipped are the five systems slowest to build, two thirds of a
// cold-corpus round between them. A drift round builds every model
// twice, at registration and after the drift, and with them takes 8 s, so
// the five rounds a run needs would be twice the window. cold-corpus
// keeps them.
var driftSkipped = map[string]bool{
	"epigenomics-200":     true,
	"epigenomics-90-wide": true,
	"genome-sequencing":   true,
	"ml-pipeline-220":     true,
	"montage-scaled-240":  true,
}

// driftCorpus is the corpus without the skipped systems.
func driftCorpus(p params) ([]*system, error) {
	all, err := loadCorpus(p)
	if err != nil {
		return nil, err
	}
	var systems []*system
	for _, sys := range all {
		if !driftSkipped[sys.name] {
			systems = append(systems, sys)
		}
	}
	return systems, nil
}

// recalibration is the daemon's default for drift-triggered rebuilds.
var recalibration = calibrate.Options{Smoothing: 0.5}

func (w *driftReplan) clients() int { return 1 }

// driftRecords are service requests on the system's first server type at
// twice its designed mean service time.
func driftRecords(sys *system) []audit.Record {
	st := sys.env.Type(0)
	records := make([]audit.Record, driftSamples)
	for i := range records {
		records[i] = audit.Record{
			Kind:       audit.ServiceRequest,
			Time:       float64(i),
			ServerType: st.Name,
			Service:    2 * st.MeanService,
		}
	}
	return records
}

// recalibrated applies the estimator's current estimates to private
// copies of the system, as the server does before a drift rebuild.
func recalibrated(c *replayCtx, est *stream.Estimator, sys *system) (*spec.Environment, []*spec.Workflow, error) {
	var estimates *calibrate.Estimates
	var err error
	c.layer("stream.snapshot", func() { estimates, err = est.Snapshot() })
	if err != nil {
		return nil, nil, err
	}
	var env *spec.Environment
	flows := make([]*spec.Workflow, len(sys.flows))
	c.layer("calibrate.apply", func() {
		for i, f := range sys.flows {
			flows[i] = f.Clone()
		}
		env, err = estimates.ApplySystem(sys.env, flows, recalibration)
	})
	return env, flows, err
}

func (w *driftReplan) oracle() error {
	systems, err := driftCorpus(w.p)
	if err != nil {
		return err
	}
	w.systems = systems
	w.goals = make([]server.GoalsJSON, len(systems))
	w.want = make([]*config.Recommendation, len(systems))
	return forEachParallel(len(systems), func(i int) error {
		sys := systems[i]
		// The deployment's goal is twice the waiting time its registered
		// configuration has, so it starts feasible with headroom.
		designed, err := buildDirect(nil, sys.env, sys.flows)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		as, err := designed.assess(nil, sys.config, config.Goals{MaxWaiting: 1e9})
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		observed := as.Perf.MaxWaiting()
		if !(observed > 0) || math.IsInf(observed, 1) {
			return fmt.Errorf("%s: deployed config %v has max waiting %v; not a stable deployment", sys.name, sys.config, observed)
		}
		w.goals[i] = server.GoalsJSON{MaxWaiting: 2 * observed}

		est := stream.NewEstimator(stream.Options{})
		est.ObserveBatch(driftRecords(sys))
		env, flows, err := recalibrated(nil, est, sys)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		drifted, err := buildDirect(nil, env, flows)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		w.want[i], err = drifted.greedy(nil, goalsOf(w.goals[i]), config.Constraints{StartFrom: sys.config})
		if err != nil {
			return fmt.Errorf("%s: re-plan: %w", sys.name, err)
		}
		return nil
	})
}

func (w *driftReplan) setup() error {
	systems, err := driftCorpus(w.p)
	if err != nil {
		return err
	}
	w.deployBodies = make([][]byte, len(systems))
	w.driftBodies = make([][]byte, len(systems))
	for i, sys := range systems {
		w.deployBodies[i] = mustJSON(server.DeploymentRequest{System: *sys.doc, Config: sys.config, Goals: w.goals[i]})
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range driftRecords(sys) {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		w.driftBodies[i] = buf.Bytes()
	}
	w.order = shuffled(w.p.seed, len(systems))
	return nil
}

func (w *driftReplan) teardown() {}

func (w *driftReplan) round(rec *roundRec) error {
	// A fresh server per round: a stream that has drifted once is
	// re-baselined, and streams cannot be removed.
	return freshServer(server.Options{Reconfigure: true}, func(url string, call *caller) error {
		// Registration is the round's set-up: it builds each model cold
		// and creates its ingestion stream.
		for _, i := range w.order {
			if _, err := call.post(url+"/v1/deployments", w.deployBodies[i]); err != nil {
				return fmt.Errorf("%s: register: %w", w.systems[i].name, err)
			}
		}
		var sinceID uint64
		for n, i := range w.order {
			sys := w.systems[i]
			var adv server.AdvisoryJSON
			rec.op(n, func() (err error) {
				adv, err = episode(call, url, sys, w.driftBodies[i], sinceID)
				return err
			}, func() error {
				sinceID = adv.ID
				rec.count("server.controller_ms", adv.LatencyMS)
				want := w.want[i]
				switch {
				case adv.PlannerCode != "":
					return fmt.Errorf("%s: re-plan failed: %s: %s", sys.name, adv.PlannerCode, adv.PlannerError)
				case !sameInts(adv.NewConfig, want.Config.Replicas):
					return fmt.Errorf("%s: advised %v, a cold warm-started greedy gives %v", sys.name, adv.NewConfig, want.Config.Replicas)
				case adv.Evaluations != want.Evaluations:
					return fmt.Errorf("%s: %d evaluations, a cold warm-started greedy takes %d", sys.name, adv.Evaluations, want.Evaluations)
				}
				return nil
			})
		}
		return nil
	})
}

// episode posts the drifting batch and polls until its advisory appears.
func episode(call *caller, url string, sys *system, batch []byte, sinceID uint64) (server.AdvisoryJSON, error) {
	raw, err := call.post(url+"/v1/events?fingerprint="+sys.fingerprint, batch)
	if err != nil {
		return server.AdvisoryJSON{}, err
	}
	var ev server.EventsResponse
	if err := json.Unmarshal(raw, &ev); err != nil {
		return server.AdvisoryJSON{}, err
	}
	if !ev.Invalidated {
		return server.AdvisoryJSON{}, fmt.Errorf("%s: drift batch did not cross: %s", sys.name, ev.Drift)
	}
	poll := fmt.Sprintf("%s/v1/advisories?fingerprint=%s&since_id=%d", url, sys.fingerprint, sinceID)
	deadline := time.Now().Add(pollTimeout)
	for {
		raw, err := call.get(poll)
		if err != nil {
			return server.AdvisoryJSON{}, err
		}
		var list server.AdvisoriesResponse
		if err := json.Unmarshal(raw, &list); err != nil {
			return server.AdvisoryJSON{}, err
		}
		if len(list.Advisories) > 0 {
			return list.Advisories[0], nil
		}
		if time.Now().After(deadline) {
			return server.AdvisoryJSON{}, fmt.Errorf("%s: no advisory within %v", sys.name, pollTimeout)
		}
		time.Sleep(pollEvery)
	}
}

func (w *driftReplan) replay(rr *replayRun) error {
	// Registration builds the designed model cold and assesses the
	// deployed configuration on it; it is no operation's time.
	for _, i := range w.order {
		sys := w.systems[i]
		err := rr.request(-1).under(spanReplay, func(c *replayCtx) error {
			env, flows, err := decodeSystem(c, sys.docJSON)
			if err != nil {
				return err
			}
			d, err := buildDirect(c, env, flows)
			if err != nil {
				return err
			}
			_, err = d.assess(c, sys.config, goalsOf(w.goals[i]))
			d.countEvaluatorSince(c, performability.CacheStats{})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: registration: %w", sys.name, err)
		}
	}
	for n, i := range w.order {
		sys := w.systems[i]
		c := rr.request(n)
		var d *direct
		var plan *config.Recommendation
		err := c.under(spanReplay, func(c *replayCtx) error {
			records, err := readRecords(c, w.driftBodies[i])
			if err != nil {
				return err
			}
			est := stream.NewEstimator(stream.Options{})
			baseline := stream.NewBaseline(sys.env, sys.flows)
			c.layer("stream.observe", func() { est.ObserveBatch(records) })
			c.layer("stream.score", func() { est.ScoreAgainst(baseline, stream.Thresholds{}) })
			c.count("stream.dropped", float64(est.Dropped()))
			env, flows, err := recalibrated(c, est, sys)
			if err != nil {
				return err
			}
			if d, err = buildDirect(c, env, flows); err != nil {
				return err
			}
			// The controller assesses the deployed configuration under the
			// drifted model, re-plans from it, and justifies the result.
			if _, err = d.assess(c, sys.config, goalsOf(w.goals[i])); err != nil {
				return err
			}
			if plan, err = d.greedy(c, goalsOf(w.goals[i]), config.Constraints{StartFrom: sys.config}); err != nil {
				return err
			}
			_, err = d.sensitivity(c, plan.Config.Replicas)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		d.countEvaluatorSince(c, performability.CacheStats{})
		var candidates [][]int
		for _, step := range plan.Trace {
			candidates = append(candidates, step.Config.Replicas)
		}
		err = c.under(spanProbe, func(c *replayCtx) error {
			if err := probeBuild(c, d); err != nil {
				return err
			}
			return probeEvaluate(c, d, candidates, false)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
	}
	return nil
}
