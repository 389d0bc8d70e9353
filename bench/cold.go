package main

import (
	"encoding/json"
	"fmt"

	"performa/internal/performability"
	"performa/internal/server"
)

// coldCorpus posts every corpus system once to a server that has never
// seen it: each operation pays its model build. One client, so nothing
// contends and an operation's time is the sum of its layers.
type coldCorpus struct {
	p params

	systems []*system
	want    []assessWant // by system

	order  []int
	bodies [][]byte // by system
}

func (w *coldCorpus) clients() int { return 1 }

func (w *coldCorpus) oracle() error {
	systems, err := loadCorpus(w.p)
	if err != nil {
		return err
	}
	w.systems = systems
	w.want = make([]assessWant, len(systems))
	return forEachParallel(len(systems), func(i int) error {
		sys := systems[i]
		d, err := buildDirect(nil, sys.env, sys.flows)
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		as, err := d.assess(nil, sys.config, goalsOf(assessGoals))
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		w.want[i] = wantOf(as)
		return nil
	})
}

func (w *coldCorpus) setup() error {
	systems, err := loadCorpus(w.p)
	if err != nil {
		return err
	}
	w.bodies = make([][]byte, len(systems))
	for i, sys := range systems {
		w.bodies[i] = mustJSON(server.AssessRequest{System: *sys.doc, Config: sys.config, Goals: assessGoals})
	}
	w.order = shuffled(w.p.seed, len(systems))
	return nil
}

func (w *coldCorpus) teardown() {}

// assessReply is the part of server.AssessResponse the checks read.
type assessReply struct {
	Assessment assessmentReply `json:"assessment"`
	CacheWarm  bool            `json:"cache_warm"`
}

func (w *coldCorpus) round(rec *roundRec) error {
	return freshServer(server.Options{}, func(url string, call *caller) error {
		for n, i := range w.order {
			var raw []byte
			rec.op(n, func() (err error) {
				raw, err = call.post(url+"/v1/assess", w.bodies[i])
				return err
			}, func() error {
				var reply assessReply
				if err := json.Unmarshal(raw, &reply); err != nil {
					return err
				}
				if reply.CacheWarm {
					rec.count("server.cache_warm", 1)
					return fmt.Errorf("%s: a fresh server reports a warm model", w.systems[i].name)
				}
				rec.count("server.model_builds", 1)
				if err := w.want[i].check(reply.Assessment); err != nil {
					return fmt.Errorf("%s: %w", w.systems[i].name, err)
				}
				return nil
			})
		}
		return nil
	})
}

func (w *coldCorpus) replay(rr *replayRun) error {
	for n, i := range w.order {
		sys := w.systems[i]
		c := rr.request(n)
		var d *direct
		err := c.under(spanReplay, func(c *replayCtx) error {
			env, flows, err := decodeSystem(c, sys.docJSON)
			if err != nil {
				return err
			}
			if d, err = buildDirect(c, env, flows); err != nil {
				return err
			}
			_, err = d.assess(c, sys.config, goalsOf(assessGoals))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
		d.countEvaluatorSince(c, performability.CacheStats{})
		err = c.under(spanProbe, func(c *replayCtx) error {
			if err := probeBuild(c, d); err != nil {
				return err
			}
			if err := probeNet(c, sys.flows); err != nil {
				return err
			}
			return probeEvaluate(c, d, [][]int{sys.config}, false)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sys.name, err)
		}
	}
	return nil
}
