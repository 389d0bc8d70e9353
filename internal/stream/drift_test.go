package stream

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/calibrate"
	"performa/internal/spec"
	"performa/internal/workload"
)

func TestBaselineCoversSystem(t *testing.T) {
	env := workload.PaperEnvironment()
	ep := workload.EPWorkflow(5)
	ord := workload.OrderWorkflow(3)
	b := NewBaseline(env, []*spec.Workflow{ep, ord})

	// Every top-level transition of both charts is present with its
	// declared probability.
	for _, w := range []*spec.Workflow{ep, ord} {
		for _, tr := range w.Chart.Transitions {
			key := calibrate.TransitionKey{Chart: w.Chart.Name, From: tr.From, To: tr.To}
			if got, ok := b.Transitions[key]; !ok || got != tr.Prob {
				t.Errorf("baseline transition %v = %v (present %v), want %v", key, got, ok, tr.Prob)
			}
		}
		for name, prof := range w.Profiles {
			if b.Activities[name] != prof.MeanDuration {
				t.Errorf("baseline activity %q = %v, want %v", name, b.Activities[name], prof.MeanDuration)
			}
		}
		if b.Arrivals[w.Name] != w.ArrivalRate {
			t.Errorf("baseline arrival %q = %v, want %v", w.Name, b.Arrivals[w.Name], w.ArrivalRate)
		}
	}
	for _, st := range env.Types() {
		if b.Service[st.Name] != st.MeanService {
			t.Errorf("baseline service %q = %v, want %v", st.Name, b.Service[st.Name], st.MeanService)
		}
	}
	// Nested subcharts contribute their transitions under their own
	// chart names (the EP workflow embeds subworkflows).
	sawNested := false
	for key := range b.Transitions {
		if key.Chart != ep.Chart.Name && key.Chart != ord.Chart.Name {
			sawNested = true
			break
		}
	}
	if !sawNested {
		t.Error("baseline has no nested-chart transitions; expected subchart coverage")
	}
}

// driftTrail emits n departures from state "init" of chart "wf" with the
// given split between branches A and B, plus enough samples on the other
// dimensions to clear MinSamples gates when needed.
func driftTrail(n int, probA float64) []audit.Record {
	var recs []audit.Record
	tm := 0.0
	for i := 0; i < n; i++ {
		inst := uint64(i + 1)
		to := "A"
		if float64(i%10) >= probA*10 {
			to = "B"
		}
		recs = append(recs,
			audit.Record{Kind: audit.InstanceStarted, Time: tm, Workflow: "wf", Instance: inst},
			audit.Record{Kind: audit.StateEntered, Time: tm, Workflow: "wf", Instance: inst, Chart: "wf", State: "init"},
			audit.Record{Kind: audit.StateLeft, Time: tm + 0.25, Workflow: "wf", Instance: inst, Chart: "wf", State: "init"},
			audit.Record{Kind: audit.StateEntered, Time: tm + 0.25, Workflow: "wf", Instance: inst, Chart: "wf", State: to},
			audit.Record{Kind: audit.StateLeft, Time: tm + 0.5, Workflow: "wf", Instance: inst, Chart: "wf", State: to},
			audit.Record{Kind: audit.StateEntered, Time: tm + 0.5, Workflow: "wf", Instance: inst, Chart: "wf", State: "final"},
			audit.Record{Kind: audit.InstanceCompleted, Time: tm + 0.6, Workflow: "wf", Instance: inst},
		)
		tm += 1.0
	}
	return recs
}

func baselineAB(probA float64) *Baseline {
	return &Baseline{
		Transitions: map[calibrate.TransitionKey]float64{
			{Chart: "wf", From: "init", To: "A"}: probA,
			{Chart: "wf", From: "init", To: "B"}: 1 - probA,
		},
		Activities: map[string]float64{},
		Service:    map[string]float64{},
		Arrivals:   map[string]float64{"wf": 1.0},
	}
}

func TestScoreDetectsTransitionDrift(t *testing.T) {
	est := NewEstimator(Options{})
	est.ObserveBatch(driftTrail(100, 0.5)) // observed 50/50
	base := baselineAB(0.9)                // model says 90/10

	s := est.ScoreAgainst(base, Thresholds{})
	// Branch B: baseline 0.1, observed 0.5 → change (0.4)/0.1 = 4.
	if s.Transition < 3.9 {
		t.Errorf("transition drift = %v, want ≈ 4", s.Transition)
	}
	if !s.Exceeds(Thresholds{}) {
		t.Error("drift should exceed default thresholds")
	}
	if len(s.Top) == 0 {
		t.Fatal("no contributions reported")
	}
	if s.Top[0].Dimension != "transition" {
		t.Errorf("worst contribution dimension = %q, want transition", s.Top[0].Dimension)
	}
	for i := 1; i < len(s.Top); i++ {
		if s.Top[i].Change > s.Top[i-1].Change {
			t.Error("contributions not sorted worst-first")
		}
	}
}

func TestScoreMatchingBehaviorStaysUnderThreshold(t *testing.T) {
	est := NewEstimator(Options{})
	est.ObserveBatch(driftTrail(100, 0.9))
	base := baselineAB(0.9)
	s := est.ScoreAgainst(base, Thresholds{})
	if s.Exceeds(Thresholds{}) {
		t.Errorf("matching behavior flagged as drift: %v", s)
	}
}

func TestMinDeparturesGatesTransitionScoring(t *testing.T) {
	est := NewEstimator(Options{})
	est.ObserveBatch(driftTrail(10, 0.5)) // drifted but only 10 departures
	base := baselineAB(0.9)
	s := est.ScoreAgainst(base, Thresholds{MinDepartures: 50})
	if s.Transition != 0 {
		t.Errorf("transition scored with only 10 departures: %v", s.Transition)
	}
	// Lowering the gate exposes the drift.
	s = est.ScoreAgainst(base, Thresholds{MinDepartures: 5})
	if s.Transition < 3.9 {
		t.Errorf("transition drift with low gate = %v, want ≈ 4", s.Transition)
	}
}

func TestScoreArrivalDrift(t *testing.T) {
	est := NewEstimator(Options{})
	// 50 starts one time unit apart → observed rate ≈ 1.0.
	est.ObserveBatch(driftTrail(50, 0.9))
	base := baselineAB(0.9)
	base.Arrivals["wf"] = 4.0 // model built for 4/s, observed 1/s
	s := est.ScoreAgainst(base, Thresholds{})
	if want := 0.75; math.Abs(s.Arrival-want) > 1e-9 {
		t.Errorf("arrival drift = %v, want %v", s.Arrival, want)
	}
	if !s.Exceeds(Thresholds{}) {
		t.Error("arrival drift 0.75 should exceed default 0.5 threshold")
	}
}

func TestScoreServiceAndResidenceDrift(t *testing.T) {
	var recs []audit.Record
	for i := 0; i < 30; i++ {
		tm := float64(i)
		inst := uint64(i + 1)
		recs = append(recs,
			audit.Record{Kind: audit.ActivityStarted, Time: tm, Instance: inst, Activity: "a"},
			audit.Record{Kind: audit.ActivityCompleted, Time: tm + 2.0, Instance: inst, Activity: "a"},
			audit.Record{Kind: audit.ServiceRequest, Time: tm, ServerType: "srv", Service: 0.3},
		)
	}
	est := NewEstimator(Options{})
	est.ObserveBatch(recs)
	base := &Baseline{
		Transitions: map[calibrate.TransitionKey]float64{},
		Activities:  map[string]float64{"a": 1.0}, // observed 2.0 → change 1.0
		Service:     map[string]float64{"srv": 0.2},
		Arrivals:    map[string]float64{},
	}
	s := est.ScoreAgainst(base, Thresholds{})
	if math.Abs(s.Residence-1.0) > 1e-9 {
		t.Errorf("residence drift = %v, want 1.0", s.Residence)
	}
	if want := 0.5; math.Abs(s.Service-want) > 1e-9 {
		t.Errorf("service drift = %v, want %v", s.Service, want)
	}
}

func TestScoreIgnoresUnknownParameters(t *testing.T) {
	// Records for charts/activities/servers the baseline does not know
	// must not contribute drift (foreign trails cannot evict models).
	var recs []audit.Record
	for i := 0; i < 200; i++ {
		tm := float64(i)
		recs = append(recs, driftTrail(1, 0.5)...)
		recs = append(recs,
			audit.Record{Kind: audit.ServiceRequest, Time: tm, ServerType: "mystery", Service: 99},
			audit.Record{Kind: audit.ActivityStarted, Time: tm, Instance: uint64(1000 + i), Activity: "ghost"},
			audit.Record{Kind: audit.ActivityCompleted, Time: tm + 50, Instance: uint64(1000 + i), Activity: "ghost"},
		)
	}
	est := NewEstimator(Options{})
	est.ObserveBatch(recs)
	base := &Baseline{
		Transitions: map[calibrate.TransitionKey]float64{},
		Activities:  map[string]float64{},
		Service:     map[string]float64{},
		Arrivals:    map[string]float64{},
	}
	s := est.ScoreAgainst(base, Thresholds{})
	if s.Max() != 0 {
		t.Errorf("unknown parameters contributed drift: %v", s)
	}
}

func TestThresholdDefaults(t *testing.T) {
	d := Thresholds{}.WithDefaults()
	want := DefaultThresholds()
	if d != want {
		t.Errorf("WithDefaults() = %+v, want %+v", d, want)
	}
	// Partial overrides keep the rest at defaults.
	p := Thresholds{Transition: 0.1}.WithDefaults()
	if p.Transition != 0.1 || p.Residence != want.Residence || p.MinSamples != want.MinSamples {
		t.Errorf("partial override broke defaults: %+v", p)
	}
}

func TestScoreMaxAndString(t *testing.T) {
	s := Score{Transition: 0.1, Residence: 0.7, Service: 0.2, Arrival: 0.3}
	if s.Max() != 0.7 {
		t.Errorf("Max = %v, want 0.7", s.Max())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestProbFloorBoundsRareBranchDrift(t *testing.T) {
	// Baseline probability 0.01 observed at 0.06: with the 0.05 floor
	// the change is (0.05)/0.05 = 1, not 5.
	if got := relChange(0.06, 0.01, probFloor); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("floored relChange = %v, want 1.0", got)
	}
}

// relChange must switch denominators exactly at the floor: a baseline
// below the floor divides by the floor, a baseline at or above it
// divides by itself. These cases gate the reconfiguration trigger, so
// the boundary is pinned.
func TestRelChangeDenominatorBoundary(t *testing.T) {
	cases := []struct {
		name                  string
		observed, base, floor float64
		want                  float64
	}{
		{"base exactly at floor uses base", 0.10, 0.05, 0.05, 1.0},
		{"base just below floor uses floor", 0.10, 0.049999, 0.05, (0.10 - 0.049999) / 0.05},
		{"base above floor uses base", 0.30, 0.20, 0.05, 0.5},
		{"zero base uses floor", 0.5, 0, 0.05, 10.0},
		{"zero floor zero base", 0, 0, 0, math.NaN()},
		{"negative delta is folded", 0.1, 0.2, 0, 0.5},
	}
	for _, c := range cases {
		got := relChange(c.observed, c.base, c.floor)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: relChange(%v, %v, %v) = %v, want NaN", c.name, c.observed, c.base, c.floor, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: relChange(%v, %v, %v) = %v, want %v", c.name, c.observed, c.base, c.floor, got, c.want)
		}
	}
}

// Exceeds is strict: a score sitting exactly at a threshold does not
// trigger, one epsilon above does. The controller keys reconfiguration
// off this comparison, so > vs ≥ is load-bearing.
func TestExceedsIsStrictAtThreshold(t *testing.T) {
	th := Thresholds{Transition: 0.25, Residence: 0.25, Service: 0.25, Arrival: 0.5,
		MinDepartures: 1, MinSamples: 1}
	at := Score{Transition: 0.25, Residence: 0.25, Service: 0.25, Arrival: 0.5}
	if at.Exceeds(th) {
		t.Errorf("score exactly at thresholds must not exceed: %v", at)
	}
	const eps = 1e-12
	for name, s := range map[string]Score{
		"transition": {Transition: 0.25 + eps},
		"residence":  {Residence: 0.25 + eps},
		"service":    {Service: 0.25 + eps},
		"arrival":    {Arrival: 0.5 + eps},
	} {
		if !s.Exceeds(th) {
			t.Errorf("%s one epsilon above threshold must exceed", name)
		}
	}
}

// A branch the model says is never taken (baseline probability zero)
// that shows up in the trail must score against the probability floor —
// finite, large, and attributable — rather than dividing by zero.
func TestZeroBaselineTransitionScoresAgainstFloor(t *testing.T) {
	est := NewEstimator(Options{})
	est.ObserveBatch(driftTrail(100, 0.5)) // observed 50/50 split
	base := baselineAB(1.0)                // model: A always, B never

	s := est.ScoreAgainst(base, Thresholds{})
	// Branch B: baseline 0, observed 0.5 → change 0.5/probFloor = 10.
	if want := 0.5 / probFloor; math.Abs(s.Transition-want) > 1e-9 {
		t.Errorf("zero-baseline transition drift = %v, want %v", s.Transition, want)
	}
	if math.IsInf(s.Transition, 1) || math.IsNaN(s.Transition) {
		t.Fatalf("zero-baseline drift is non-finite: %v", s.Transition)
	}
	if len(s.Top) == 0 || s.Top[0].Baseline != 0 {
		t.Errorf("worst contribution should be the zero-baseline branch: %+v", s.Top)
	}
}

// TestScoreAgainstNamesOnlyTheKept scores 32 drifted transitions, keeps
// five, and holds ScoreAgainst to the candidates and Top, plus one name
// per kept transition: each name must be the key of the baseline the
// contribution carries.
func TestScoreAgainstNamesOnlyTheKept(t *testing.T) {
	est := NewEstimator(Options{})
	est.ObserveBatch(driftTrail(100, 0.5))
	base := baselineAB(0.9)
	for i := range 30 {
		base.Transitions[calibrate.TransitionKey{Chart: "wf", From: "init", To: fmt.Sprint("C", i)}] = 0.01 * float64(i+1)
	}
	var s Score
	if n := testing.AllocsPerRun(20, func() { s = est.ScoreAgainst(base, Thresholds{}) }); n > 2+topContributions {
		t.Errorf("ScoreAgainst allocates %v times, want at most %d", n, 2+topContributions)
	}
	if len(s.Top) != topContributions || s.Top[0].Parameter != "wf:init→B" {
		t.Fatalf("top contributions %+v, want %d led by wf:init→B", s.Top, topContributions)
	}
	for _, c := range s.Top {
		chart, rest, _ := strings.Cut(c.Parameter, ":")
		from, to, _ := strings.Cut(rest, "→")
		if got, ok := base.Transitions[calibrate.TransitionKey{Chart: chart, From: from, To: to}]; !ok || got != c.Baseline {
			t.Errorf("%s carries baseline %v; the baseline's is %v (%v)", c.Parameter, c.Baseline, got, ok)
		}
	}
}
