package server

// This file defines the request and response schemas of the advisory
// API. System models ride in requests as wfjson documents — the same
// codec the CLIs consume — so a spec exported with `wfmsconfig
// -export-spec` posts to the service unchanged.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"performa/internal/audit"
	"performa/internal/avail"
	"performa/internal/config"
	"performa/internal/jsonscan"
	"performa/internal/linalg"
	"performa/internal/performability"
	"performa/internal/sensitivity"
	"performa/internal/stream"
	"performa/internal/wfjson"
)

// Float is a float64 that survives JSON encoding of the model's
// non-finite values: the infinities the waiting-time model produces for
// saturated configurations (greedy traces routinely pass through them)
// encode as the quoted strings "Infinity"/"-Infinity"/"NaN" instead of
// failing the whole response.
type Float float64

// MarshalJSON encodes finite values as plain numbers.
func (f Float) MarshalJSON() ([]byte, error) {
	w := jsonscan.Writer{Buf: make([]byte, 0, 24)}
	return w.FloatOrQuoted("", float64(f)).Buf, nil
}

// UnmarshalJSON accepts both plain numbers and the quoted sentinels; null
// leaves f unchanged. A plain number is parsed where it stands; anything
// else, an out-of-range number included, goes through encoding/json,
// which accepts or refuses it with its own error.
func (f *Float) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"Infinity"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Infinity"`:
		*f = Float(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	case `null`:
		return nil
	}
	if end, _ := jsonscan.Number(b, 0); end == len(b) {
		if v, err := strconv.ParseFloat(string(b), 64); err == nil {
			*f = Float(v)
			return nil
		}
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

func floats(xs []float64) []Float {
	if xs == nil {
		return nil
	}
	out := make([]Float, len(xs))
	for i, v := range xs {
		out[i] = Float(v)
	}
	return out
}

// GoalsJSON mirrors config.Goals.
type GoalsJSON struct {
	MaxWaiting          float64   `json:"max_waiting,omitempty"`
	MaxUnavailability   float64   `json:"max_unavailability,omitempty"`
	PerTypeMaxWaiting   []float64 `json:"per_type_max_waiting,omitempty"`
	PerWorkflowMaxDelay []float64 `json:"per_workflow_max_delay,omitempty"`
}

func (g GoalsJSON) toGoals() config.Goals {
	return config.Goals{
		MaxWaiting:          g.MaxWaiting,
		MaxUnavailability:   g.MaxUnavailability,
		PerTypeMaxWaiting:   g.PerTypeMaxWaiting,
		PerWorkflowMaxDelay: g.PerWorkflowMaxDelay,
	}
}

// ConstraintsJSON mirrors config.Constraints.
type ConstraintsJSON struct {
	MinReplicas []int `json:"min_replicas,omitempty"`
	MaxReplicas []int `json:"max_replicas,omitempty"`
	Fixed       []int `json:"fixed,omitempty"`
	// StartFrom warm-starts the greedy planner at this configuration
	// (typically the deployed one), enabling removal steps — see
	// config.Constraints.StartFrom.
	StartFrom []int `json:"start_from,omitempty"`
}

func (c ConstraintsJSON) toConstraints() config.Constraints {
	return config.Constraints{
		MinReplicas: c.MinReplicas,
		MaxReplicas: c.MaxReplicas,
		Fixed:       c.Fixed,
		StartFrom:   c.StartFrom,
	}
}

// ModelJSON selects the evaluation model variant. The zero value means
// the recommended exclude-down policy with independent repair — the
// decomposition the paper's Section 7.1 describes.
type ModelJSON struct {
	// Policy is "exclude-down" (default), "strict", or "penalty".
	Policy string `json:"policy,omitempty"`
	// PenaltyValue is the substitute waiting time under "penalty".
	PenaltyValue float64 `json:"penalty_value,omitempty"`
	// Discipline is "independent" (default) or "single-crew".
	Discipline string `json:"discipline,omitempty"`
}

func (m ModelJSON) toOptions() (performability.Options, error) {
	out := performability.Options{PenaltyValue: m.PenaltyValue}
	switch m.Policy {
	case "", "exclude-down":
		out.Policy = performability.ExcludeDown
	case "strict":
		out.Policy = performability.Strict
	case "penalty":
		out.Policy = performability.Penalty
	default:
		return out, fmt.Errorf("unknown policy %q (want exclude-down, strict, or penalty)", m.Policy)
	}
	switch m.Discipline {
	case "", "independent":
		out.Discipline = avail.IndependentRepair
	case "single-crew":
		out.Discipline = avail.SingleCrew
	default:
		return out, fmt.Errorf("unknown repair discipline %q (want independent or single-crew)", m.Discipline)
	}
	return out, nil
}

// AssessRequest evaluates one configuration Y against goals.
type AssessRequest struct {
	System wfjson.Document `json:"system"`
	Config []int           `json:"config"`
	Goals  GoalsJSON       `json:"goals"`
	Model  ModelJSON       `json:"model,omitempty"`
}

// AssessmentJSON reports how a configuration fares against the goals.
type AssessmentJSON struct {
	Config           []int   `json:"config"`
	Feasible         bool    `json:"feasible"`
	PerfOK           bool    `json:"perf_ok"`
	AvailOK          bool    `json:"avail_ok"`
	Waiting          []Float `json:"waiting"`
	FullUpWaiting    []Float `json:"full_up_waiting"`
	MaxWaiting       Float   `json:"max_waiting"`
	Availability     float64 `json:"availability"`
	Unavailability   float64 `json:"unavailability"`
	DegradationShare float64 `json:"degradation_share"`
	WorkflowDelays   []Float `json:"workflow_delays,omitempty"`
}

func assessmentJSON(as *config.Assessment) AssessmentJSON {
	return AssessmentJSON{
		Config:           as.Config.Replicas,
		Feasible:         as.Feasible(),
		PerfOK:           as.PerfOK,
		AvailOK:          as.AvailOK,
		Waiting:          floats(as.Perf.Waiting),
		FullUpWaiting:    floats(as.Perf.FullUpWaiting),
		MaxWaiting:       Float(as.Perf.MaxWaiting()),
		Availability:     as.Perf.Availability,
		Unavailability:   as.Unavailability,
		DegradationShare: as.Perf.DegradationShare,
		WorkflowDelays:   floats(as.WorkflowDelays),
	}
}

// AssessResponse is the /v1/assess reply.
type AssessResponse struct {
	Fingerprint string         `json:"fingerprint"`
	ServerTypes []string       `json:"server_types"`
	Assessment  AssessmentJSON `json:"assessment"`
	// CacheWarm reports whether the system model was already resident
	// (the request skipped the model builds).
	CacheWarm bool `json:"cache_warm"`
}

// RecommendRequest runs a planner over the system.
type RecommendRequest struct {
	System wfjson.Document `json:"system"`
	// Planner is "greedy" (default), "exhaustive", or "bnb".
	Planner     string          `json:"planner,omitempty"`
	Goals       GoalsJSON       `json:"goals"`
	Constraints ConstraintsJSON `json:"constraints,omitempty"`
	Model       ModelJSON       `json:"model,omitempty"`
	// TimeoutMillis bounds the search; 0 inherits the server default.
	// Negative values are rejected with a typed invalid_request error.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// TraceStepJSON mirrors config.Step. AddedType and RemovedType are -1
// when the step added or removed nothing (warm-started searches emit
// removal steps while trimming an oversized deployment).
type TraceStepJSON struct {
	Config         []int   `json:"config"`
	MaxWaiting     Float   `json:"max_waiting"`
	Unavailability float64 `json:"unavailability"`
	AddedType      int     `json:"added_type"`
	RemovedType    int     `json:"removed_type"`
	Reason         string  `json:"reason,omitempty"`
}

// RecommendResponse is the /v1/recommend reply.
type RecommendResponse struct {
	Fingerprint string          `json:"fingerprint"`
	Planner     string          `json:"planner"`
	ServerTypes []string        `json:"server_types"`
	Config      []int           `json:"config"`
	Cost        int             `json:"cost"`
	Evaluations int             `json:"evaluations"`
	Assessment  AssessmentJSON  `json:"assessment"`
	Trace       []TraceStepJSON `json:"trace,omitempty"`
	CacheWarm   bool            `json:"cache_warm"`
	ElapsedMS   float64         `json:"elapsed_ms"`
}

// AssessBatchItem is one entry of an assess-batch: a system, the
// configuration to evaluate, its goals, and (optionally) per-item model
// options overriding the batch default.
type AssessBatchItem struct {
	System wfjson.Document `json:"system"`
	Config []int           `json:"config"`
	Goals  GoalsJSON       `json:"goals"`
	Model  *ModelJSON      `json:"model,omitempty"`
}

// AssessBatchRequest evaluates many items in one admission pass,
// amortizing model builds across items that share a system fingerprint
// and evaluation options.
type AssessBatchRequest struct {
	Items []AssessBatchItem `json:"items"`
	// Model is the default evaluation model for items that carry none.
	Model ModelJSON `json:"model,omitempty"`
	// TimeoutMillis bounds the whole batch; 0 inherits the server
	// default. Negative values are rejected.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// AssessBatchItemJSON is one item's outcome, in input order. Exactly
// one of Assessment and Error is set: a bad item costs an item-level
// typed error, never the batch.
type AssessBatchItemJSON struct {
	Index       int             `json:"index"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	ServerTypes []string        `json:"server_types,omitempty"`
	Assessment  *AssessmentJSON `json:"assessment,omitempty"`
	CacheWarm   bool            `json:"cache_warm,omitempty"`
	Error       *ErrorResponse  `json:"error,omitempty"`
}

// AssessBatchResponse is the /v1/assess-batch reply.
type AssessBatchResponse struct {
	Items []AssessBatchItemJSON `json:"items"`
	// Groups is the number of distinct (fingerprint, model-options)
	// groups in the batch — the number of model resolutions needed.
	Groups int `json:"groups"`
	// ModelBuilds is how many cold model builds this batch performed;
	// items sharing a group share one build (the amortization the
	// endpoint exists for).
	ModelBuilds int `json:"model_builds"`
	// CacheWarm is how many items found their model already resident.
	CacheWarm int     `json:"cache_warm"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RecommendBatchItem is one entry of a recommend-batch.
type RecommendBatchItem struct {
	System      wfjson.Document `json:"system"`
	Planner     string          `json:"planner,omitempty"`
	Goals       GoalsJSON       `json:"goals"`
	Constraints ConstraintsJSON `json:"constraints,omitempty"`
	Model       *ModelJSON      `json:"model,omitempty"`
}

// RecommendBatchRequest plans many items in one admission pass.
type RecommendBatchRequest struct {
	Items         []RecommendBatchItem `json:"items"`
	Model         ModelJSON            `json:"model,omitempty"`
	TimeoutMillis int64                `json:"timeout_ms,omitempty"`
}

// RecommendBatchItemJSON is one item's outcome, in input order.
type RecommendBatchItemJSON struct {
	Index          int                `json:"index"`
	Recommendation *RecommendResponse `json:"recommendation,omitempty"`
	Error          *ErrorResponse     `json:"error,omitempty"`
}

// RecommendBatchResponse is the /v1/recommend-batch reply.
type RecommendBatchResponse struct {
	Items       []RecommendBatchItemJSON `json:"items"`
	Groups      int                      `json:"groups"`
	ModelBuilds int                      `json:"model_builds"`
	CacheWarm   int                      `json:"cache_warm"`
	ElapsedMS   float64                  `json:"elapsed_ms"`
}

// CalibrateRequest feeds an audit trail through the calibration
// component (§7's feedback loop): transition probabilities, activity
// durations, and arrival rates are re-estimated from the records and
// the models re-derived.
type CalibrateRequest struct {
	System wfjson.Document `json:"system"`
	Trail  []audit.Record  `json:"trail"`
	// Smoothing is the Laplace smoothing for re-estimated branch
	// probabilities (default 0.5).
	Smoothing float64 `json:"smoothing,omitempty"`
	// MinInstances is the minimum number of completed instances before
	// the trail is trusted (default 50).
	MinInstances int `json:"min_instances,omitempty"`
}

// CalibrateResponse returns the recalibrated system: post it back to
// /v1/assess or /v1/recommend to plan against the observed behavior.
type CalibrateResponse struct {
	// Fingerprint identifies the recalibrated system (already warmed in
	// the model cache).
	Fingerprint string `json:"fingerprint"`
	// PriorFingerprint identifies the system as posted.
	PriorFingerprint string `json:"prior_fingerprint"`
	// System is the recalibrated document.
	System wfjson.Document `json:"system"`
	// Records is the number of trail records ingested.
	Records int `json:"records"`
	// ArrivalRates reports the re-estimated per-workflow rates.
	ArrivalRates map[string]float64 `json:"arrival_rates,omitempty"`
}

// EventsResponse is the /v1/events reply: the ingestion accounting for
// the batch plus the system's current drift state.
type EventsResponse struct {
	// Fingerprint identifies the system the events were scored against.
	Fingerprint string `json:"fingerprint"`
	// Records is the number of records in this batch.
	Records int `json:"records"`
	// TotalEvents is the stream's lifetime record count.
	TotalEvents uint64 `json:"total_events"`
	// Dropped counts instance starts whose per-instance tracking was
	// skipped by the in-flight bound.
	Dropped uint64 `json:"dropped,omitempty"`
	// Drift is the score of the running estimates against the model
	// baseline after this batch.
	Drift ScoreJSON `json:"drift"`
	// Drifted reports whether the stream currently exceeds thresholds
	// (cleared when a post-drift rebuild re-baselines).
	Drifted bool `json:"drifted"`
	// Generation is the drift-rebuild generation; the next /v1/assess
	// over the system builds (or reuses) this generation's model.
	Generation uint64 `json:"generation"`
	// Invalidated reports whether THIS batch crossed the threshold and
	// evicted the warm models.
	Invalidated bool `json:"invalidated"`
	// Invalidations counts the stream's lifetime threshold crossings.
	Invalidations uint64 `json:"invalidations"`
	// Evicted is the number of cache entries dropped by this batch's
	// invalidation (0 unless Invalidated).
	Evicted int `json:"evicted,omitempty"`
}

// DriftThresholdsJSON reports the effective drift thresholds.
type DriftThresholdsJSON struct {
	Transition    float64 `json:"transition"`
	Residence     float64 `json:"residence"`
	Service       float64 `json:"service"`
	Arrival       float64 `json:"arrival"`
	MinDepartures uint64  `json:"min_departures"`
	MinSamples    uint64  `json:"min_samples"`
}

// DriftStreamJSON reports one ingestion stream on /v1/drift.
type DriftStreamJSON struct {
	Fingerprint   string    `json:"fingerprint"`
	Events        uint64    `json:"events"`
	Batches       uint64    `json:"batches"`
	Dropped       uint64    `json:"dropped,omitempty"`
	InFlight      int       `json:"in_flight"`
	Score         ScoreJSON `json:"score"`
	MaxScore      Float     `json:"max_score"`
	Drifted       bool      `json:"drifted"`
	Generation    uint64    `json:"generation"`
	Invalidations uint64    `json:"invalidations"`
}

// ScoreJSON is a stream.Score on the wire. Its numbers are Floats: a
// relative change can overflow to +Inf (service times of 1e308 against a
// millisecond mean), which encoding/json would refuse as a number.
type ScoreJSON struct {
	Transition Float              `json:"transition"`
	Residence  Float              `json:"residence"`
	Service    Float              `json:"service"`
	Arrival    Float              `json:"arrival"`
	Top        []ContributionJSON `json:"top,omitempty"`
}

// ContributionJSON is a stream.Contribution on the wire.
type ContributionJSON struct {
	Dimension string `json:"dimension"`
	Parameter string `json:"parameter"`
	Baseline  Float  `json:"baseline"`
	Observed  Float  `json:"observed"`
	Change    Float  `json:"change"`
}

func scoreJSON(s stream.Score) ScoreJSON {
	out := ScoreJSON{
		Transition: Float(s.Transition),
		Residence:  Float(s.Residence),
		Service:    Float(s.Service),
		Arrival:    Float(s.Arrival),
	}
	for _, c := range s.Top {
		out.Top = append(out.Top, ContributionJSON{
			Dimension: c.Dimension, Parameter: c.Parameter,
			Baseline: Float(c.Baseline), Observed: Float(c.Observed), Change: Float(c.Change),
		})
	}
	return out
}

// String renders the score as stream.Score.String does.
func (s ScoreJSON) String() string {
	return stream.Score{
		Transition: float64(s.Transition),
		Residence:  float64(s.Residence),
		Service:    float64(s.Service),
		Arrival:    float64(s.Arrival),
	}.String()
}

// DriftResponse is the /v1/drift reply.
type DriftResponse struct {
	Thresholds DriftThresholdsJSON `json:"thresholds"`
	Streams    []DriftStreamJSON   `json:"streams"`
}

// IngestStatsJSON summarizes the ingestion path on /v1/stats.
type IngestStatsJSON struct {
	Streams       int    `json:"streams"`
	Events        uint64 `json:"events"`
	Batches       uint64 `json:"batches"`
	Invalidations uint64 `json:"invalidations"`
}

// BatchStatsJSON summarizes the batch endpoints on /v1/stats.
type BatchStatsJSON struct {
	// Items is the lifetime count of batch items processed.
	Items uint64 `json:"items"`
	// Builds is the lifetime count of cold model builds batches
	// performed; Items/Builds is the realized amortization ratio.
	Builds uint64 `json:"builds"`
}

// EvaluatorStatsJSON reports one warm model entry on /v1/stats.
type EvaluatorStatsJSON struct {
	Fingerprint string `json:"fingerprint"`
	// Marginals is the number of memoized availability marginals.
	Marginals int `json:"marginals"`
}

// EndpointStatsJSON reports one route's latency histogram summary.
type EndpointStatsJSON struct {
	Requests uint64         `json:"requests"`
	ByStatus map[int]uint64 `json:"by_status,omitempty"`
	Inflight int64          `json:"inflight"`
	MeanMS   Float          `json:"mean_ms"`
	P50MS    Float          `json:"p50_ms"`
	P95MS    Float          `json:"p95_ms"`
	P99MS    Float          `json:"p99_ms"`
}

// StatsResponse is the /v1/stats reply.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	ModelCache    struct {
		Size      int    `json:"size"`
		Max       int    `json:"max"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"model_cache"`
	Evaluators []EvaluatorStatsJSON         `json:"evaluators"`
	Admission  AdmissionStatsJSON           `json:"admission"`
	Ingest     IngestStatsJSON              `json:"ingest"`
	Batch      BatchStatsJSON               `json:"batch"`
	Endpoints  map[string]EndpointStatsJSON `json:"endpoints"`
	// Errors counts error responses by machine-readable code.
	Errors map[string]uint64 `json:"errors,omitempty"`
	// Panics counts panics recovered in handlers, batch items and
	// re-plans (each one is a bug, logged with its stack).
	Panics uint64 `json:"panics"`
	// ClampedStages counts Erlang stage expansions the subworkflow
	// collapse clamped at its cap across cold model builds — each one a
	// variance floor the collapsed chain enforces on a
	// lower-variance-than-representable subworkflow (logged per build).
	ClampedStages uint64 `json:"clamped_stages,omitempty"`
	// Solvers reports the process-wide per-solver solve counters: how
	// many steady-state and first-passage systems each linear solver
	// handled, total iterations, and fallback counts.
	Solvers map[string]linalg.SolverCounter `json:"solvers,omitempty"`
}

// AdmissionStatsJSON reports the admission semaphore.
type AdmissionStatsJSON struct {
	// WorkerBudget is the semaphore capacity: concurrent planner runs.
	WorkerBudget int `json:"worker_budget"`
	// PerRequest is always 1: every planner run is sequential and holds
	// one token. It is kept only because the frozen bench/ harness reads
	// it.
	PerRequest int `json:"per_request"`
	// InUse and Waiting describe the instantaneous queue state.
	InUse   int `json:"in_use"`
	Waiting int `json:"waiting"`
}

// ErrorResponse is every non-2xx JSON body. Code carries the
// machine-readable error category (the wfmserr code of a typed pipeline
// error, or a transport-level category like "bad_request"); clients
// should branch on it rather than on the human-readable Error text.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// SensitivityEntryJSON mirrors sensitivity.Entry with JSON-safe floats
// (elasticities are NaN when the base metric is zero).
type SensitivityEntryJSON struct {
	Kind                     string  `json:"kind"`
	Index                    int     `json:"index"`
	Target                   string  `json:"target"`
	Value                    Float   `json:"value"`
	DMaxWaiting              Float   `json:"d_max_waiting"`
	DUnavailability          Float   `json:"d_unavailability"`
	DWorkflowDelays          []Float `json:"d_workflow_delays,omitempty"`
	WaitingElasticity        Float   `json:"waiting_elasticity"`
	UnavailabilityElasticity Float   `json:"unavailability_elasticity"`
	Rank                     Float   `json:"rank"`
	Method                   string  `json:"method"`
	Step                     Float   `json:"step"`
	Attribution              string  `json:"attribution"`
}

func sensitivityEntriesJSON(entries []sensitivity.Entry) []SensitivityEntryJSON {
	out := make([]SensitivityEntryJSON, len(entries))
	for i, e := range entries {
		out[i] = SensitivityEntryJSON{
			Kind:                     string(e.Kind),
			Index:                    e.Index,
			Target:                   e.Target,
			Value:                    Float(e.Value),
			DMaxWaiting:              Float(e.DMaxWaiting),
			DUnavailability:          Float(e.DUnavailability),
			DWorkflowDelays:          floats(e.DWorkflowDelays),
			WaitingElasticity:        Float(e.WaitingElasticity),
			UnavailabilityElasticity: Float(e.UnavailabilityElasticity),
			Rank:                     Float(e.Rank),
			Method:                   e.Method,
			Step:                     Float(e.Step),
			Attribution:              e.Attribution,
		}
	}
	return out
}

// SensitivityResponse is the GET /v1/sensitivity reply: the ranked
// finite-difference sensitivity table of the warm system model at one
// configuration.
type SensitivityResponse struct {
	Fingerprint        string                 `json:"fingerprint"`
	ServerTypes        []string               `json:"server_types"`
	Config             []int                  `json:"config"`
	BaseMaxWaiting     Float                  `json:"base_max_waiting"`
	BaseUnavailability Float                  `json:"base_unavailability"`
	BaseWorkflowDelays []Float                `json:"base_workflow_delays"`
	Entries            []SensitivityEntryJSON `json:"entries"`
	Summary            string                 `json:"summary"`
	ElapsedMS          float64                `json:"elapsed_ms"`
}

// DeploymentRequest registers a deployed configuration with the
// reconfiguration controller: the system, the configuration currently
// running, and the goals/constraints future re-plans must satisfy.
// Registration warms the model, creates the system's ingestion stream,
// and assesses the deployed configuration against the goals.
type DeploymentRequest struct {
	System      wfjson.Document `json:"system"`
	Config      []int           `json:"config"`
	Goals       GoalsJSON       `json:"goals"`
	Constraints ConstraintsJSON `json:"constraints,omitempty"`
	Model       ModelJSON       `json:"model,omitempty"`
}

// DeploymentJSON reports one registered deployment.
type DeploymentJSON struct {
	Fingerprint string          `json:"fingerprint"`
	ServerTypes []string        `json:"server_types"`
	Config      []int           `json:"config"`
	Goals       GoalsJSON       `json:"goals"`
	Assessment  *AssessmentJSON `json:"assessment,omitempty"`
	// Advisories is how many reconfiguration advisories this deployment
	// has received.
	Advisories uint64 `json:"advisories"`
}

// DeploymentsResponse is the GET /v1/deployments reply.
type DeploymentsResponse struct {
	Deployments []DeploymentJSON `json:"deployments"`
}

// AdvisoryJSON is one reconfiguration advisory: a drift crossing
// triggered a warm-started re-plan from the deployed configuration, and
// this is the outcome. Exactly one of NewConfig and PlannerError is
// meaningful: a planning failure (infeasible goals, blown budget) still
// produces an advisory so operators see the loop attempted and why it
// could not recommend.
type AdvisoryJSON struct {
	ID          uint64 `json:"id"`
	Fingerprint string `json:"fingerprint"`
	// Generation is the drift-rebuild generation the re-plan ran
	// against.
	Generation uint64 `json:"generation"`
	// Trigger is the drift score that crossed the thresholds.
	Trigger ScoreJSON `json:"trigger"`
	// OldConfig is the deployed configuration; OldAssessment its
	// standing under the recalibrated (post-drift) model.
	OldConfig     []int           `json:"old_config"`
	OldAssessment *AssessmentJSON `json:"old_assessment,omitempty"`
	// NewConfig is the recommended configuration under the
	// recalibrated model (absent when planning failed).
	NewConfig     []int           `json:"new_config,omitempty"`
	NewAssessment *AssessmentJSON `json:"new_assessment,omitempty"`
	// DeltaMaxWaiting and DeltaUnavailability are new − old: the
	// predicted effect of applying the advisory.
	DeltaMaxWaiting     Float `json:"delta_max_waiting,omitempty"`
	DeltaUnavailability Float `json:"delta_unavailability,omitempty"`
	// Justification is the sensitivity summary of the recommended
	// configuration — why the model believes these replicas matter.
	Justification string `json:"justification,omitempty"`
	// TopFactors are the highest-ranked sensitivity entries at the
	// recommended configuration.
	TopFactors []SensitivityEntryJSON `json:"top_factors,omitempty"`
	// PlannerError and PlannerCode report a failed re-plan (e.g. code
	// "infeasible" when the drifted load admits no configuration
	// within constraints).
	PlannerError string `json:"planner_error,omitempty"`
	PlannerCode  string `json:"planner_code,omitempty"`
	// Evaluations is the planner's evaluation count; LatencyMS the
	// drift-to-advisory latency.
	Evaluations int     `json:"evaluations,omitempty"`
	LatencyMS   float64 `json:"latency_ms"`
	// UnixMS is the advisory's emission time.
	UnixMS int64 `json:"unix_ms"`
}

// AdvisoriesResponse is the GET /v1/advisories reply, oldest first.
type AdvisoriesResponse struct {
	Advisories []AdvisoryJSON `json:"advisories"`
	// NextSinceID is the highest advisory ID in the reply (pass as
	// since_id to poll for newer ones); 0 when empty.
	NextSinceID uint64 `json:"next_since_id,omitempty"`
}
