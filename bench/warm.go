package main

import (
	"encoding/json"
	"fmt"
	"time"

	"performa/internal/performability"
	"performa/internal/server"
)

// warmWhatIf assesses variant replica vectors of systems whose models
// are resident: no operation builds a model, so the chain solver is
// bypassed and an operation is HTTP, JSON decode, fingerprint, and a
// cached performability evaluation. Two clients share the two cores with
// the server.
type warmWhatIf struct {
	p params

	systems []*system
	// want[i][v] is the expected assessment of system i at variant v.
	want [][]assessWant

	requests []whatIf // in send order
	srv      *liveServer
	call     *caller
}

// whatIf is one request of the round.
type whatIf struct {
	system  int
	variant int
	config  []int
	body    []byte
}

// Each system is asked about 4 replica vectors, each twice: the model
// LRU (32 entries) holds all 22 systems by design, and after the first
// pass every degraded state of every vector is in the evaluator's cache.
const (
	whatIfVectors = 4
	whatIfRepeats = 2
)

func (w *warmWhatIf) clients() int { return 2 }

// variant returns system sys's v-th replica vector: the corpus vector,
// then one more replica on a type chosen by a seeded rotation.
func (w *warmWhatIf) variant(sys *system, i, v int) []int {
	cfg := append([]int(nil), sys.config...)
	if v > 0 {
		cfg[(int(w.p.seed%uint64(len(cfg)))+i+v-1)%len(cfg)]++
	}
	return cfg
}

func (w *warmWhatIf) oracle() error {
	systems, err := loadCorpus(w.p)
	if err != nil {
		return err
	}
	w.systems = systems
	_, w.want, err = w.assessDirectly()
	return err
}

// assessDirectly builds every system's models by hand and assesses each
// variant vector on them. The oracle keeps the answers; the replay keeps
// the models, whose evaluators now hold every state the round touches.
func (w *warmWhatIf) assessDirectly() ([]*direct, [][]assessWant, error) {
	models := make([]*direct, len(w.systems))
	want := make([][]assessWant, len(w.systems))
	err := forEachParallel(len(w.systems), func(i int) error {
		sys := w.systems[i]
		d, err := buildDirect(nil, sys.env, sys.flows)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		models[i] = d
		for v := 0; v < whatIfVectors; v++ {
			as, err := d.assess(nil, w.variant(sys, i, v), goalsOf(assessGoals))
			if err != nil {
				return fmt.Errorf("%s: %w", sys.name, err)
			}
			want[i] = append(want[i], wantOf(as))
		}
		return nil
	})
	return models, want, err
}

func (w *warmWhatIf) setup() error {
	systems, err := loadCorpus(w.p)
	if err != nil {
		return err
	}
	var list []whatIf
	for i, sys := range systems {
		for v := 0; v < whatIfVectors; v++ {
			cfg := w.variant(sys, i, v)
			body := mustJSON(server.AssessRequest{System: *sys.doc, Config: cfg, Goals: assessGoals})
			for r := 0; r < whatIfRepeats; r++ {
				list = append(list, whatIf{system: i, variant: v, config: cfg, body: body})
			}
		}
	}
	w.requests = make([]whatIf, len(list))
	for n, j := range shuffled(w.p.seed, len(list)) {
		w.requests[n] = list[j]
	}

	if w.srv, err = startServer(server.Options{}); err != nil {
		return err
	}
	conns := clientCount(w)
	w.call = newCaller(conns)
	if err := w.call.dial(w.srv.url, conns); err != nil {
		return err
	}
	// Pre-warm: build every model, then send the whole list once so the
	// timed rounds all see the same (fully cached) evaluators.
	err = eachRequestErr(conns, len(systems), func(i int) error {
		_, err := w.call.post(w.srv.url+"/v1/assess", w.requests[firstOf(w.requests, i)].body)
		return err
	})
	if err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	fill := newRoundRec(nil, 0)
	if err := w.round(fill); err != nil {
		return err
	}
	if fill.firstErr != nil {
		return fmt.Errorf("pre-warm: %w", fill.firstErr)
	}
	return nil
}

// firstOf returns the position of the first request for the system.
func firstOf(requests []whatIf, system int) int {
	for n, r := range requests {
		if r.system == system {
			return n
		}
	}
	panic("every system has requests")
}

func (w *warmWhatIf) teardown() {
	if w.call != nil {
		w.call.close()
	}
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

func (w *warmWhatIf) round(rec *roundRec) error {
	eachRequest(clientCount(w), len(w.requests), func(n int) {
		req := w.requests[n]
		var raw []byte
		rec.op(n, func() (err error) {
			raw, err = w.call.post(w.srv.url+"/v1/assess", req.body)
			return err
		}, func() error {
			var reply assessReply
			if err := json.Unmarshal(raw, &reply); err != nil {
				return err
			}
			name := w.systems[req.system].name
			if !reply.CacheWarm {
				rec.count("server.model_builds", 1)
				return fmt.Errorf("%s: a pre-warmed model was built again", name)
			}
			rec.count("server.cache_warm", 1)
			if err := w.want[req.system][req.variant].check(reply.Assessment); err != nil {
				return fmt.Errorf("%s at %v: %w", name, req.config, err)
			}
			return nil
		})
	})
	return nil
}

func (w *warmWhatIf) replay(rr *replayRun) error {
	models, _, err := w.assessDirectly()
	if err != nil {
		return err
	}
	before := make([]performability.CacheStats, len(models))
	for i, d := range models {
		before[i] = d.ev.Stats()
	}
	for n, req := range w.requests {
		sys, d := w.systems[req.system], models[req.system]
		c := rr.request(n)
		err := c.under(spanReplay, func(c *replayCtx) error {
			if _, _, err := decodeSystem(c, sys.docJSON); err != nil {
				return err
			}
			// The model is resident: the server goes straight from the
			// fingerprint to the assessment.
			_, err := d.assess(c, req.config, goalsOf(assessGoals))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
	}
	for i, d := range models {
		d.countEvaluatorSince(rr.request(-1), before[i])
	}
	for n, req := range w.requests {
		c := rr.request(n)
		err := c.under(spanProbe, func(c *replayCtx) error {
			return probeEvaluate(c, models[req.system], [][]int{req.config}, true)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.systems[req.system].name, err)
		}
	}
	return w.batchProbe(rr)
}

// batchProbe posts one assess-batch of three vectors per system over the
// resident models. Batch endpoints are in no timed workload; the
// per-item time continues the batch-warm row of BENCH_serving.json.
func (w *warmWhatIf) batchProbe(rr *replayRun) error {
	var batch server.AssessBatchRequest
	for i, sys := range w.systems {
		for v := 0; v < 3; v++ {
			batch.Items = append(batch.Items, server.AssessBatchItem{
				System: *sys.doc, Config: w.variant(sys, i, v), Goals: assessGoals,
			})
		}
	}
	body := mustJSON(batch)
	var raw []byte
	var err error
	start := time.Now()
	rr.tr.do("http.assess_batch", 0, -1, func() { raw, err = w.call.post(w.srv.url+"/v1/assess-batch", body) })
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	var reply server.AssessBatchResponse
	if err := json.Unmarshal(raw, &reply); err != nil {
		return err
	}
	if reply.ModelBuilds != 0 || len(reply.Items) != len(batch.Items) {
		return fmt.Errorf("assess-batch over resident models: %d builds, %d of %d items",
			reply.ModelBuilds, len(reply.Items), len(batch.Items))
	}
	rr.counts["server.batch_warm_item_us"] = float64(elapsed.Microseconds()) / float64(len(batch.Items))
	return nil
}
