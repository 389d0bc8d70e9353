package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"performa/internal/crossval"
	"performa/internal/wfcommons"
	"performa/internal/wfjson"
	"performa/internal/workload"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/answers/ from the current answers")

// ledgerGoals are the goals a ledger system is planned against: the
// plan-search goals on the paper's system and the seven-type
// distributed EP system (times in minutes), a waiting goal the corpus
// systems (times in seconds) can meet.
func ledgerGoals(name string) GoalsJSON {
	if name == "paper" || name == epDistributedLedger {
		return GoalsJSON{MaxWaiting: 5e-4, MaxUnavailability: 1e-6}
	}
	return GoalsJSON{MaxWaiting: 0.1, MaxUnavailability: 1e-6}
}

// epDistributedLedger names the ledger's seven-type system: the EP
// workflow at 8 per minute distributed over the extended environment,
// the first system the plan-search benchmark posts.
const epDistributedLedger = "ep-distributed-8"

// ledgerModels are the evaluation options the ledger walks: every
// saturation policy under both repair disciplines.
var ledgerModels = func() []ModelJSON {
	var out []ModelJSON
	for _, policy := range []string{"exclude-down", "strict", "penalty"} {
		for _, discipline := range []string{"independent", "single-crew"} {
			m := ModelJSON{Policy: policy, Discipline: discipline}
			if policy == "penalty" {
				m.PenaltyValue = 1
			}
			out = append(out, m)
		}
	}
	return out
}()

// bits is a float stored by its IEEE-754 bit pattern, so a ledger diff
// is a change of any bit, not of a printed digit.
type bits float64

func (b bits) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`"%016x"`, math.Float64bits(float64(b)))), nil
}

func bitsOf[F ~float64](xs []F) []bits {
	out := make([]bits, len(xs))
	for i, v := range xs {
		out[i] = bits(v)
	}
	return out
}

// ledgerError is a typed refusal, recorded like any other answer.
type ledgerError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ledgerPlan is one planner reply: the answer, its evaluation count,
// the reply's own assessment and, for greedy, every trace step.
type ledgerPlan struct {
	Config      []int             `json:"config,omitempty"`
	Cost        int               `json:"cost,omitempty"`
	Evaluations int               `json:"evaluations,omitempty"`
	Assessment  *ledgerAssessment `json:"assessment,omitempty"`
	Trace       []ledgerStep      `json:"trace,omitempty"`
	Error       *ledgerError      `json:"error,omitempty"`
}

// ledgerStep is one greedy trace step on one line: the candidate, the
// types that gained and lost a replica (-1 for none), the bit patterns
// of the candidate's max waiting and unavailability, and the reason.
type ledgerStep string

func stepOf(step TraceStepJSON) ledgerStep {
	return ledgerStep(fmt.Sprintf("%v added=%d removed=%d w=%016x u=%016x %s", step.Config, step.AddedType, step.RemovedType,
		math.Float64bits(float64(step.MaxWaiting)), math.Float64bits(step.Unavailability), step.Reason))
}

type ledgerAssessment struct {
	Config           []int        `json:"config"`
	Feasible         bool         `json:"feasible"`
	PerfOK           bool         `json:"perf_ok"`
	AvailOK          bool         `json:"avail_ok"`
	Waiting          []bits       `json:"waiting"`
	FullUpWaiting    []bits       `json:"full_up_waiting"`
	MaxWaiting       bits         `json:"max_waiting"`
	Availability     bits         `json:"availability"`
	Unavailability   bits         `json:"unavailability"`
	DegradationShare bits         `json:"degradation_share"`
	WorkflowDelays   []bits       `json:"workflow_delays,omitempty"`
	Error            *ledgerError `json:"error,omitempty"`
}

func assessmentBits(as AssessmentJSON) ledgerAssessment {
	return ledgerAssessment{
		Config: as.Config, Feasible: as.Feasible, PerfOK: as.PerfOK, AvailOK: as.AvailOK,
		Waiting: bitsOf(as.Waiting), FullUpWaiting: bitsOf(as.FullUpWaiting), MaxWaiting: bits(as.MaxWaiting),
		Availability: bits(as.Availability), Unavailability: bits(as.Unavailability),
		DegradationShare: bits(as.DegradationShare), WorkflowDelays: bitsOf(as.WorkflowDelays),
	}
}

type ledgerEntry struct {
	Parameter       string `json:"parameter"`
	Method          string `json:"method"`
	Rank            bits   `json:"rank"`
	DMaxWaiting     bits   `json:"d_max_waiting"`
	DUnavailability bits   `json:"d_unavailability"`
}

type ledgerSensitivity struct {
	BaseMaxWaiting     bits          `json:"base_max_waiting"`
	BaseUnavailability bits          `json:"base_unavailability"`
	Ranking            []ledgerEntry `json:"ranking,omitempty"`
	Error              *ledgerError  `json:"error,omitempty"`
}

// ledgerAnswers is what one system answers under one model.
type ledgerAnswers struct {
	Model          ModelJSON         `json:"model"`
	Greedy         ledgerPlan        `json:"greedy"`
	BranchAndBound ledgerPlan        `json:"branch_and_bound"`
	Exhaustive     ledgerPlan        `json:"exhaustive"`
	WarmGreedy     ledgerPlan        `json:"warm_greedy"`
	Assess         ledgerAssessment  `json:"assess"`
	Sensitivity    ledgerSensitivity `json:"sensitivity"`
	// DelayGoal is the per-workflow delay limit, half of each workflow's
	// delay at the anchor, that DelayGreedy and DelayBranchAndBound plan
	// against on top of the system's goals.
	DelayGoal           []bits     `json:"delay_goal,omitempty"`
	DelayGreedy         ledgerPlan `json:"delay_greedy"`
	DelayBranchAndBound ledgerPlan `json:"delay_branch_and_bound"`
}

// TestAnswerLedger is the checked-in record of what the service answers
// on the paper's system, the seven-type distributed EP system and every
// corpus system, under each saturation
// policy and repair discipline: the greedy recommendation with its
// trace; branch-and-bound and exhaustive capped one replica above the
// greedy answer, and greedy warm-started at that cap; the /v1/assess
// reply at the greedy answer and the sensitivity ranking there; and
// greedy and branch-and-bound under per-workflow delay goals the greedy
// answer misses. Every plan keeps its evaluation count and its reply's
// assessment. Floats are compared by bit pattern. A change that moves
// an answer on purpose reruns with -update and explains every moved
// number.
func TestAnswerLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("answer ledger walks 24 systems × 6 models")
	}
	docs := corpusDocs(t)
	docs["paper"], _ = paperSystem(t)
	docs[epDistributedLedger], _ = systemOf(t, workload.ExtendedEnvironment(), workload.EPDistributed(8))
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)

	servers := make([]string, len(ledgerModels))
	for i := range ledgerModels {
		_, ts := newTestServer(t, Options{Workers: 1})
		servers[i] = ts.URL
	}
	dir := filepath.Join("testdata", "answers")
	if *updateAnswers {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		doc := docs[name]
		answers := make([]ledgerAnswers, len(ledgerModels))
		for i, model := range ledgerModels {
			answers[i] = walkLedger(t, servers[i], doc, ledgerGoals(name), model)
		}
		got, err := json.MarshalIndent(answers, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join(dir, name+".json")
		if *updateAnswers {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (record with go test ./internal/server -run AnswerLedger -update)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: answers changed (diff %s against go test -run AnswerLedger -update)", name, path)
		}
	}
}

// walkLedger asks one server for the ledger's answers on one system.
func walkLedger(t *testing.T, url string, doc wfjson.Document, goals GoalsJSON, model ModelJSON) ledgerAnswers {
	t.Helper()
	out := ledgerAnswers{Model: model}
	k := len(doc.Environment.Types)
	plan := func(planner string, goals GoalsJSON, cons ConstraintsJSON) ledgerPlan {
		return ledgerRecommend(t, url, RecommendRequest{System: doc, Planner: planner, Goals: goals, Model: model, Constraints: cons})
	}
	capAbove := func(y []int) []int {
		capped := make([]int, len(y))
		for x, v := range y {
			capped[x] = v + 1
		}
		return capped
	}

	out.Greedy = plan("greedy", goals, ConstraintsJSON{})
	// The anchor is the greedy answer, or the corpus default vector when
	// greedy has none.
	anchor := make([]int, k)
	for x := range anchor {
		anchor[x] = wfcommons.DefaultReplicas
	}
	if out.Greedy.Error == nil {
		anchor = out.Greedy.Config
	}
	// Branch-and-bound and exhaustive search the box one replica above
	// the anchor; greedy warm-started at its corner trims it back down.
	capped := capAbove(anchor)
	out.BranchAndBound = plan("bnb", goals, ConstraintsJSON{MaxReplicas: capped})
	out.Exhaustive = plan("exhaustive", goals, ConstraintsJSON{MaxReplicas: capped})
	out.WarmGreedy = plan("greedy", goals, ConstraintsJSON{StartFrom: capped})

	var assess AssessResponse
	out.Assess.Error = ledgerCall(t, http.MethodPost, url+"/v1/assess",
		AssessRequest{System: doc, Config: anchor, Goals: goals, Model: model}, &assess)
	if out.Assess.Error == nil {
		out.Assess = assessmentBits(assess.Assessment)

		cfg := make([]string, k)
		for x, y := range anchor {
			cfg[x] = fmt.Sprint(y)
		}
		var table SensitivityResponse
		out.Sensitivity.Error = ledgerCall(t, http.MethodGet,
			url+"/v1/sensitivity?fingerprint="+assess.Fingerprint+"&config="+strings.Join(cfg, ","), nil, &table)
		if out.Sensitivity.Error == nil {
			out.Sensitivity.BaseMaxWaiting = bits(table.BaseMaxWaiting)
			out.Sensitivity.BaseUnavailability = bits(table.BaseUnavailability)
			for _, e := range table.Entries {
				out.Sensitivity.Ranking = append(out.Sensitivity.Ranking, ledgerEntry{
					Parameter: fmt.Sprintf("%s/%d", e.Kind, e.Index), Method: e.Method, Rank: bits(e.Rank),
					DMaxWaiting: bits(e.DMaxWaiting), DUnavailability: bits(e.DUnavailability),
				})
			}
		}
	}

	// Per-workflow delay goals at half of each workflow's delay at the
	// anchor, so the anchor itself misses them; a workflow whose delay is
	// not a positive finite number gets no goal.
	open := make([]float64, len(doc.Workflows))
	for i := range open {
		open[i] = math.MaxFloat64
	}
	var delays AssessResponse
	if ledgerCall(t, http.MethodPost, url+"/v1/assess", AssessRequest{System: doc, Config: anchor,
		Goals: GoalsJSON{MaxWaiting: goals.MaxWaiting, PerWorkflowMaxDelay: open}, Model: model}, &delays) != nil {
		return out
	}
	delayGoals := goals
	delayGoals.PerWorkflowMaxDelay = make([]float64, len(open))
	for i, d := range delays.Assessment.WorkflowDelays {
		if d := float64(d); d > 0 && !math.IsInf(d, 1) {
			delayGoals.PerWorkflowMaxDelay[i] = d / 2
		}
	}
	out.DelayGoal = bitsOf(delayGoals.PerWorkflowMaxDelay)
	out.DelayGreedy = plan("greedy", delayGoals, ConstraintsJSON{})
	delayAnchor := anchor
	if out.DelayGreedy.Error == nil {
		delayAnchor = out.DelayGreedy.Config
	}
	out.DelayBranchAndBound = plan("bnb", delayGoals, ConstraintsJSON{MaxReplicas: capAbove(delayAnchor)})
	return out
}

// ledgerRecommend asks for one plan and records the reply.
func ledgerRecommend(t *testing.T, url string, req RecommendRequest) ledgerPlan {
	t.Helper()
	var resp RecommendResponse
	if e := ledgerCall(t, http.MethodPost, url+"/v1/recommend", req, &resp); e != nil {
		return ledgerPlan{Error: e}
	}
	as := assessmentBits(resp.Assessment)
	out := ledgerPlan{Config: resp.Config, Cost: resp.Cost, Evaluations: resp.Evaluations, Assessment: &as}
	for _, step := range resp.Trace {
		out.Trace = append(out.Trace, stepOf(step))
	}
	return out
}

// ledgerCall sends one request and decodes a 200 reply into out; any
// other status is returned as the recorded refusal.
func ledgerCall(t *testing.T, method, url string, body, out any) *ledgerError {
	t.Helper()
	var reader io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, raw)
		}
		return nil
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decoding %s refusal %d: %v\n%s", url, resp.StatusCode, err, raw)
	}
	return &ledgerError{Status: resp.StatusCode, Code: e.Code, Message: e.Error}
}

// Under Strict a workflow that never calls some server type still waits
// +Inf in total; the wire must not answer "NaN" with feasible: true.
func TestStrictWorkflowDelayOnTheWire(t *testing.T) {
	sys, err := crossval.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := wfjson.ToDocument(sys.Env, sys.Flows)
	if err != nil {
		t.Fatal(err)
	}
	delays := make([]float64, len(sys.Flows))
	delays[0] = 1
	_, ts := newTestServer(t, Options{Workers: 1})
	var resp AssessResponse
	status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{System: *doc, Config: sys.Replicas,
		Goals: GoalsJSON{PerWorkflowMaxDelay: delays}, Model: ModelJSON{Policy: "strict"}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("assess status = %d", status)
	}
	if d := float64(resp.Assessment.WorkflowDelays[0]); !math.IsInf(d, 1) || resp.Assessment.Feasible {
		t.Errorf("workflow 0 delay %v, feasible %v; want +Inf and infeasible", d, resp.Assessment.Feasible)
	}
}
