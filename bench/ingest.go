package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"performa"
	"performa/internal/audit"
	"performa/internal/server"
	"performa/internal/spec"
	"performa/internal/stream"
	wfmodels "performa/internal/workload"
)

// ingestSteady streams an audit trail that agrees with the designed
// model: the line decoder, the estimator, and the drift score run on
// every batch, and nothing is ever rebuilt or re-planned. The trail is
// simulated in set-up from the model the server scores it against.
type ingestSteady struct {
	p params

	sys        *system
	assessBody []byte
	batches    [][]byte // JSON lines, ingestBatchRecords each
}

const (
	ingestBatchRecords = 2000
	ingestBatches      = 100
	// The simulated EP deployment emits about 187 records per minute of
	// trail time; the horizon leaves a margin over the records needed.
	ingestRecordsPerMinute = 150
)

// ingestReplicas is the deployment the trail is simulated on.
var ingestReplicas = []int{3, 3, 4}

// ingestDrift gates the drift score the way a production daemon does
// (wfmsd -drift-threshold 0.5 -drift-min-samples 1000). At the defaults
// the first batches of any trail cross: 25 samples of an exponential
// duration are within 25 % of its mean only four times in five, and long
// activities finish late, so early means are biased low.
var ingestDrift = stream.Thresholds{
	Transition: 0.5, Residence: 0.5, Service: 0.5, Arrival: 0.5,
	MinDepartures: 1000, MinSamples: 1000,
}

func (w *ingestSteady) clients() int { return 1 }

func (w *ingestSteady) batchCount() int {
	if w.p.smoke {
		return 10
	}
	return ingestBatches
}

// oracle has nothing to precompute: the expected answers are the record
// counts the generator sent.
func (w *ingestSteady) oracle() error { return nil }

func (w *ingestSteady) setup() error {
	env, flow := wfmodels.PaperEnvironment(), wfmodels.EPWorkflow(3)
	designed, err := performa.NewSystem(env, flow)
	if err != nil {
		return err
	}
	need := w.batchCount() * ingestBatchRecords
	trail := audit.NewTrail()
	_, err = designed.Simulate(performa.SimParams{
		Replicas: ingestReplicas,
		Seed:     w.p.seed,
		Horizon:  float64(need) / ingestRecordsPerMinute,
		Trail:    trail,
	})
	if err != nil {
		return err
	}
	records := trail.Records()
	if len(records) < need {
		return fmt.Errorf("simulated trail has %d records, the round needs %d", len(records), need)
	}
	w.batches = make([][]byte, w.batchCount())
	for b := range w.batches {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range records[b*ingestBatchRecords : (b+1)*ingestBatchRecords] {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		w.batches[b] = buf.Bytes()
	}
	if w.sys, err = newSystem("ep", env, []*spec.Workflow{flow}, ingestReplicas); err != nil {
		return err
	}
	w.assessBody = mustJSON(server.AssessRequest{System: *w.sys.doc, Config: w.sys.config, Goals: assessGoals})
	return nil
}

func (w *ingestSteady) teardown() {}

func (w *ingestSteady) round(rec *roundRec) error {
	// A fresh server per round is a fresh ingestion stream: streams are
	// keyed by fingerprint and live as long as the server.
	return freshServer(server.Options{Drift: ingestDrift}, func(url string, call *caller) error {
		// Events are scored against a resident model; put it there.
		if _, err := call.post(url+"/v1/assess", w.assessBody); err != nil {
			return err
		}
		events := url + "/v1/events?fingerprint=" + w.sys.fingerprint
		for b, body := range w.batches {
			var raw []byte
			rec.op(b, func() (err error) {
				raw, err = call.post(events, body)
				return err
			}, func() error {
				var reply server.EventsResponse
				if err := json.Unmarshal(raw, &reply); err != nil {
					return err
				}
				sent := uint64(b+1) * ingestBatchRecords
				switch {
				case reply.Records != ingestBatchRecords || reply.TotalEvents != sent:
					return fmt.Errorf("batch %d: %d records accepted, %d in total; sent %d and %d",
						b, reply.Records, reply.TotalEvents, ingestBatchRecords, sent)
				case reply.Dropped != 0:
					return fmt.Errorf("batch %d: %d instances dropped", b, reply.Dropped)
				case reply.Invalidations != 0:
					return fmt.Errorf("batch %d: a trail simulated from the designed model drifted: %s", b, reply.Drift)
				}
				rec.count("events", ingestBatchRecords)
				return nil
			})
		}
		return nil
	})
}

func (w *ingestSteady) replay(rr *replayRun) error {
	est := stream.NewEstimator(stream.Options{})
	baseline := stream.NewBaseline(w.sys.env, w.sys.flows)
	for b, body := range w.batches {
		c := rr.request(b)
		err := c.under(spanReplay, func(c *replayCtx) error {
			records, err := readRecords(c, body)
			if err != nil {
				return err
			}
			c.layer("stream.observe", func() { est.ObserveBatch(records) })
			c.layer("stream.score", func() { est.ScoreAgainst(baseline, ingestDrift) })
			return nil
		})
		if err != nil {
			return err
		}
	}
	rr.counts["stream.dropped"] += float64(est.Dropped())
	return nil
}

// readRecords is the server's first step on every event batch.
func readRecords(c *replayCtx, body []byte) ([]audit.Record, error) {
	var records []audit.Record
	var err error
	c.layer("audit.read_records", func() { records, err = audit.ReadRecords(bytes.NewReader(body)) })
	c.count("audit.records", float64(len(records)))
	return records, err
}
