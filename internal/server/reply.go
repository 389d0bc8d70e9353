package server

// This file writes the replies of the measured paths — assess,
// recommend, sensitivity, events, advisories — with jsonscan.Writer
// instead of encoding/json's reflection. Each appendJSON writes exactly
// json.Marshal's bytes for its type (FuzzAppendedRepliesMatchMarshal
// pins every one); the other replies stay on encoding/json.

import (
	"encoding/json"
	"sync"

	"performa/internal/jsonscan"
)

// appender is a reply writeJSON encodes without reflection.
type appender interface{ appendJSON(w *jsonscan.Writer) }

// AppendReply appends json.Marshal(body) to dst: by the body's own
// appendJSON when it has one (the replies of the measured paths), by
// encoding/json otherwise.
func AppendReply(dst []byte, body any) ([]byte, error) {
	if a, ok := body.(appender); ok {
		w := jsonscan.Writer{Buf: dst}
		a.appendJSON(&w)
		return w.Buf, w.Err
	}
	raw, err := json.Marshal(body)
	return append(dst, raw...), err
}

// replyBufs recycles writeJSON's buffers, but not one an outsized reply
// grew past 64 KB.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

func appendFloats(w *jsonscan.Writer, prefix string, s []Float) {
	jsonscan.AppendArray(w.Lit(prefix), s, func(w *jsonscan.Writer, f *Float) { w.FloatOrQuoted("", float64(*f)) })
}

func (a *AssessmentJSON) appendJSON(w *jsonscan.Writer) {
	w.Ints(`{"config":`, a.Config).Bool(`,"feasible":`, a.Feasible).
		Bool(`,"perf_ok":`, a.PerfOK).Bool(`,"avail_ok":`, a.AvailOK)
	appendFloats(w, `,"waiting":`, a.Waiting)
	appendFloats(w, `,"full_up_waiting":`, a.FullUpWaiting)
	w.FloatOrQuoted(`,"max_waiting":`, float64(a.MaxWaiting)).
		Float(`,"availability":`, a.Availability).
		Float(`,"unavailability":`, a.Unavailability).
		Float(`,"degradation_share":`, a.DegradationShare)
	if len(a.WorkflowDelays) > 0 {
		appendFloats(w, `,"workflow_delays":`, a.WorkflowDelays)
	}
	w.Lit(`}`)
}

// appendAssessment writes prefix and an omitempty *AssessmentJSON.
func appendAssessment(w *jsonscan.Writer, prefix string, a *AssessmentJSON) {
	if a != nil {
		a.appendJSON(w.Lit(prefix))
	}
}

func (r AssessResponse) appendJSON(w *jsonscan.Writer) {
	w.Str(`{"fingerprint":`, r.Fingerprint).Strs(`,"server_types":`, r.ServerTypes)
	r.Assessment.appendJSON(w.Lit(`,"assessment":`))
	w.Bool(`,"cache_warm":`, r.CacheWarm).Lit(`}`)
}

func (t *TraceStepJSON) appendJSON(w *jsonscan.Writer) {
	w.Ints(`{"config":`, t.Config).
		FloatOrQuoted(`,"max_waiting":`, float64(t.MaxWaiting)).
		Float(`,"unavailability":`, t.Unavailability).
		Int(`,"added_type":`, int64(t.AddedType)).
		Int(`,"removed_type":`, int64(t.RemovedType)).
		StrOmitEmpty(`,"reason":`, t.Reason).Lit(`}`)
}

func (r *RecommendResponse) appendJSON(w *jsonscan.Writer) {
	w.Str(`{"fingerprint":`, r.Fingerprint).Str(`,"planner":`, r.Planner).
		Strs(`,"server_types":`, r.ServerTypes).Ints(`,"config":`, r.Config).
		Int(`,"cost":`, int64(r.Cost)).Int(`,"evaluations":`, int64(r.Evaluations))
	r.Assessment.appendJSON(w.Lit(`,"assessment":`))
	if len(r.Trace) > 0 {
		jsonscan.AppendArray(w.Lit(`,"trace":`), r.Trace, func(w *jsonscan.Writer, t *TraceStepJSON) { t.appendJSON(w) })
	}
	w.Bool(`,"cache_warm":`, r.CacheWarm).Float(`,"elapsed_ms":`, r.ElapsedMS).Lit(`}`)
}

func (e *SensitivityEntryJSON) appendJSON(w *jsonscan.Writer) {
	w.Str(`{"kind":`, e.Kind).Int(`,"index":`, int64(e.Index)).Str(`,"target":`, e.Target).
		FloatOrQuoted(`,"value":`, float64(e.Value)).
		FloatOrQuoted(`,"d_max_waiting":`, float64(e.DMaxWaiting)).
		FloatOrQuoted(`,"d_unavailability":`, float64(e.DUnavailability))
	if len(e.DWorkflowDelays) > 0 {
		appendFloats(w, `,"d_workflow_delays":`, e.DWorkflowDelays)
	}
	w.FloatOrQuoted(`,"waiting_elasticity":`, float64(e.WaitingElasticity)).
		FloatOrQuoted(`,"unavailability_elasticity":`, float64(e.UnavailabilityElasticity)).
		FloatOrQuoted(`,"rank":`, float64(e.Rank)).Str(`,"method":`, e.Method).
		FloatOrQuoted(`,"step":`, float64(e.Step)).Str(`,"attribution":`, e.Attribution).Lit(`}`)
}

func appendEntries(w *jsonscan.Writer, prefix string, s []SensitivityEntryJSON) {
	jsonscan.AppendArray(w.Lit(prefix), s, func(w *jsonscan.Writer, e *SensitivityEntryJSON) { e.appendJSON(w) })
}

func (r SensitivityResponse) appendJSON(w *jsonscan.Writer) {
	w.Str(`{"fingerprint":`, r.Fingerprint).Strs(`,"server_types":`, r.ServerTypes).
		Ints(`,"config":`, r.Config).
		FloatOrQuoted(`,"base_max_waiting":`, float64(r.BaseMaxWaiting)).
		FloatOrQuoted(`,"base_unavailability":`, float64(r.BaseUnavailability))
	appendFloats(w, `,"base_workflow_delays":`, r.BaseWorkflowDelays)
	appendEntries(w, `,"entries":`, r.Entries)
	w.Str(`,"summary":`, r.Summary).Float(`,"elapsed_ms":`, r.ElapsedMS).Lit(`}`)
}

func (c *ContributionJSON) appendJSON(w *jsonscan.Writer) {
	w.Str(`{"dimension":`, c.Dimension).Str(`,"parameter":`, c.Parameter).
		FloatOrQuoted(`,"baseline":`, float64(c.Baseline)).
		FloatOrQuoted(`,"observed":`, float64(c.Observed)).
		FloatOrQuoted(`,"change":`, float64(c.Change)).Lit(`}`)
}

func (s *ScoreJSON) appendJSON(w *jsonscan.Writer) {
	w.FloatOrQuoted(`{"transition":`, float64(s.Transition)).
		FloatOrQuoted(`,"residence":`, float64(s.Residence)).
		FloatOrQuoted(`,"service":`, float64(s.Service)).
		FloatOrQuoted(`,"arrival":`, float64(s.Arrival))
	if len(s.Top) > 0 {
		jsonscan.AppendArray(w.Lit(`,"top":`), s.Top, func(w *jsonscan.Writer, c *ContributionJSON) { c.appendJSON(w) })
	}
	w.Lit(`}`)
}

func (r EventsResponse) appendJSON(w *jsonscan.Writer) {
	w.Str(`{"fingerprint":`, r.Fingerprint).Int(`,"records":`, int64(r.Records)).
		Uint(`,"total_events":`, r.TotalEvents)
	if r.Dropped != 0 {
		w.Uint(`,"dropped":`, r.Dropped)
	}
	r.Drift.appendJSON(w.Lit(`,"drift":`))
	w.Bool(`,"drifted":`, r.Drifted).Uint(`,"generation":`, r.Generation).
		Bool(`,"invalidated":`, r.Invalidated).Uint(`,"invalidations":`, r.Invalidations)
	if r.Evicted != 0 {
		w.Int(`,"evicted":`, int64(r.Evicted))
	}
	w.Lit(`}`)
}

func (a *AdvisoryJSON) appendJSON(w *jsonscan.Writer) {
	w.Uint(`{"id":`, a.ID).Str(`,"fingerprint":`, a.Fingerprint).Uint(`,"generation":`, a.Generation)
	a.Trigger.appendJSON(w.Lit(`,"trigger":`))
	appendAssessment(w.Ints(`,"old_config":`, a.OldConfig), `,"old_assessment":`, a.OldAssessment)
	if len(a.NewConfig) > 0 {
		w.Ints(`,"new_config":`, a.NewConfig)
	}
	appendAssessment(w, `,"new_assessment":`, a.NewAssessment)
	if a.DeltaMaxWaiting != 0 {
		w.FloatOrQuoted(`,"delta_max_waiting":`, float64(a.DeltaMaxWaiting))
	}
	if a.DeltaUnavailability != 0 {
		w.FloatOrQuoted(`,"delta_unavailability":`, float64(a.DeltaUnavailability))
	}
	w.StrOmitEmpty(`,"justification":`, a.Justification)
	if len(a.TopFactors) > 0 {
		appendEntries(w, `,"top_factors":`, a.TopFactors)
	}
	w.StrOmitEmpty(`,"planner_error":`, a.PlannerError).StrOmitEmpty(`,"planner_code":`, a.PlannerCode)
	if a.Evaluations != 0 {
		w.Int(`,"evaluations":`, int64(a.Evaluations))
	}
	w.Float(`,"latency_ms":`, a.LatencyMS).Int(`,"unix_ms":`, a.UnixMS).Lit(`}`)
}

func (r AdvisoriesResponse) appendJSON(w *jsonscan.Writer) {
	jsonscan.AppendArray(w.Lit(`{"advisories":`), r.Advisories, func(w *jsonscan.Writer, a *AdvisoryJSON) { a.appendJSON(w) })
	if r.NextSinceID != 0 {
		w.Uint(`,"next_since_id":`, r.NextSinceID)
	}
	w.Lit(`}`)
}
