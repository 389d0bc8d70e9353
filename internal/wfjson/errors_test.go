package wfjson

import (
	"encoding/json"
	"math"
	"testing"
)

// errorsDoc is a valid one-workflow document with a subchart: the
// base every case of TestDocumentErrorTexts breaks one way.
const errorsDoc = `{"environment":{"types":[
 {"name":"orb","kind":"communication","mean_service":0.001},
 {"name":"eng","kind":"engine","mean_service":0.002,"mttf":1000,"mttr":1}]},
 "workflows":[{"name":"W","arrival_rate":1,
  "chart":{"name":"W","initial":"i","final":"f",
   "states":[{"name":"i"},{"name":"a","activity":"A"},
    {"name":"p","subcharts":[{"name":"S","initial":"si","final":"sf",
      "states":[{"name":"si"},{"name":"b","activity":"B"},{"name":"sf"}],
      "transitions":[{"from":"si","to":"b","prob":1},{"from":"b","to":"sf","prob":1}]}]},
    {"name":"f"}],
   "transitions":[{"from":"i","to":"a","prob":1},
    {"from":"a","to":"p","prob":1,"actions":[{"kind":"start","target":"B"}]},
    {"from":"p","to":"f","prob":1}]},
  "activities":[{"name":"A","mean_duration":1,"load":{"orb":1}},
   {"name":"B","mean_duration":2,"stages":2,"load":{"eng":1}}]}]}`

// TestDocumentErrorTexts pins the error FromDocument reports for one
// fault per check it (or the statechart and spec validation under it)
// makes, for a fault in a subchart, and for a document with two faults,
// word for word: a client sees these texts in a 4xx reply, and which
// check runs where must not change what it is told.
func TestDocumentErrorTexts(t *testing.T) {
	sub := func(d *Document) *Chart { return &d.Workflows[0].Chart.States[2].Subcharts[0] }
	cases := []struct {
		name   string
		mutate func(d *Document)
		want   string
	}{
		{"chart without a name", func(d *Document) { d.Workflows[0].Chart.Name = "" },
			`wfjson: workflow "W": statechart: chart has no name`},
		{"chart nesting itself", func(d *Document) { sub(d).Name = "W" },
			`wfjson: workflow "W": statechart: chart "W" nests itself (recursive workflows are not supported)`},
		{"chart without states", func(d *Document) { d.Workflows[0].Chart.States = nil },
			`wfjson: workflow "W": statechart: chart "W" has no states`},
		{"missing initial state", func(d *Document) { d.Workflows[0].Chart.Initial = "nope" },
			`wfjson: workflow "W": statechart: chart "W" initial state "nope" not found`},
		{"missing final state", func(d *Document) { d.Workflows[0].Chart.Final = "nope" },
			`wfjson: workflow "W": statechart: chart "W" final state "nope" not found`},
		{"activity and subcharts in one state", func(d *Document) { d.Workflows[0].Chart.States[2].Activity = "A" },
			`wfjson: workflow "W": statechart: chart "W" state "p" both invokes an activity and embeds subcharts`},
		{"unknown source state", func(d *Document) { d.Workflows[0].Chart.Transitions[1].From = "x" },
			`wfjson: workflow "W": statechart: chart "W" transition 1: unknown source state "x"`},
		{"unknown target state", func(d *Document) { d.Workflows[0].Chart.Transitions[1].To = "x" },
			`wfjson: workflow "W": statechart: chart "W" transition 1: unknown target state "x"`},
		{"transition out of the final state", func(d *Document) {
			c := &d.Workflows[0].Chart
			c.Transitions = append(c.Transitions, Transition{From: "f", To: "a", Prob: 1})
		}, `wfjson: workflow "W": statechart: chart "W" final state "f" has an outgoing transition`},
		{"self-transition", func(d *Document) { d.Workflows[0].Chart.Transitions[1].To = "a" },
			`wfjson: workflow "W": statechart: chart "W" has a self-transition at state "a"; model loops with explicit intermediate states`},
		{"probability out of range", func(d *Document) { d.Workflows[0].Chart.Transitions[1].Prob = 1.5 },
			`wfjson: workflow "W": statechart: chart "W" transition "a"→"p" has probability 1.5, want (0,1]`},
		{"dead end", func(d *Document) {
			c := &d.Workflows[0].Chart
			c.Transitions = c.Transitions[:2]
		}, `wfjson: workflow "W": statechart: chart "W" state "p" is a dead end (no outgoing transitions and not final)`},
		{"outgoing probabilities short of one", func(d *Document) { d.Workflows[0].Chart.Transitions[1].Prob = 0.25 },
			`wfjson: workflow "W": statechart: chart "W" state "a" outgoing probabilities sum to 0.25, want 1`},
		{"final state unreachable", func(d *Document) {
			c := &d.Workflows[0].Chart
			c.States = append(c.States, State{Name: "q", Activity: "A"})
			c.Transitions = append(c.Transitions[:2], Transition{From: "p", To: "a", Prob: 1}, Transition{From: "q", To: "f", Prob: 1})
		}, `wfjson: workflow "W": statechart: chart "W" final state "f" unreachable from initial state "i"`},
		{"duplicate state", func(d *Document) {
			c := &d.Workflows[0].Chart
			c.States = append(c.States, State{Name: "a"})
		}, `wfjson: workflow "W": chart "W": duplicate state "a"`},
		{"unknown action kind", func(d *Document) { d.Workflows[0].Chart.Transitions[1].Actions[0].Kind = "launch" },
			`wfjson: workflow "W": chart "W": transition a→p: unknown action kind "launch"`},
		{"negative arrival rate", func(d *Document) { d.Workflows[0].ArrivalRate = -1 },
			`spec: workflow "W": negative arrival rate -1`},
		{"activity without a profile", func(d *Document) { d.Workflows[0].Activities = d.Workflows[0].Activities[:1] },
			`spec: workflow "W": no profile for activity "B"`},
		{"non-positive mean duration", func(d *Document) { d.Workflows[0].Activities[1].MeanDuration = 0 },
			`spec: activity "B": mean duration 0 must be positive`},
		{"negative stage count", func(d *Document) { d.Workflows[0].Activities[1].Stages = -2 },
			`spec: activity "B": negative duration stage count -2`},
		{"load on an unknown server type", func(d *Document) { d.Workflows[0].Activities[1].Load = map[string]float64{"app": 1} },
			`spec: activity "B": unknown server type "app"`},
		{"negative load", func(d *Document) { d.Workflows[0].Activities[1].Load["eng"] = -1 },
			`spec: activity "B": negative load -1 on "eng"`},
		{"unknown server kind", func(d *Document) { d.Environment.Types[1].Kind = "database" },
			`wfjson: server type "eng": unknown kind "database" (want communication, engine, application, directory, or worklist)`},
		{"negative scv", func(d *Document) { d.Environment.Types[1].ServiceSCV = -0.5 },
			`wfjson: server type "eng": negative service scv -0.5`},
		{"overflowing second moment", func(d *Document) { d.Environment.Types[1].MeanService = 1e300 },
			`wfjson: server type "eng": derived service second moment +Inf is not finite`},
		{"overflowing failure rate", func(d *Document) { d.Environment.Types[1].MTTF = 1e-320 },
			`wfjson: server type "eng": derived failure rate (1/mttf) +Inf is not finite`},
		{"non-finite mean duration", func(d *Document) { d.Workflows[0].Activities[0].MeanDuration = math.Inf(1) },
			`wfjson: workflow "W": activity "A": mean_duration +Inf is not finite`},
		{"non-finite load", func(d *Document) { d.Workflows[0].Activities[0].Load["orb"] = math.NaN() },
			`wfjson: workflow "W": activity "A": load[orb] NaN is not finite`},
		{"non-finite arrival rate", func(d *Document) { d.Workflows[0].ArrivalRate = math.Inf(-1) },
			`wfjson: workflow "W": arrival_rate -Inf is not finite`},
		{"non-positive mean service", func(d *Document) { d.Environment.Types[1].MeanService = 0 },
			`spec: server type "eng": mean service time 0 must be positive`},
		{"failing server without repair", func(d *Document) { d.Environment.Types[1].MTTR = 0 },
			`spec: server type "eng": failing servers need a positive repair rate, got 0`},
		{"duplicate server type", func(d *Document) { d.Environment.Types[1].Name = "orb" },
			`spec: duplicate server type "orb"`},
		{"no server types", func(d *Document) { d.Environment.Types = nil },
			`spec: environment needs at least one server type`},
		{"no workflows", func(d *Document) { d.Workflows = nil },
			`wfjson: document has no workflows`},
		{"fault in a subchart", func(d *Document) { sub(d).Transitions[1].Prob = 0.5 },
			`wfjson: workflow "W": statechart: chart "S" state "b" outgoing probabilities sum to 0.5, want 1`},
		{"fault in a subchart and in its parent's transitions", func(d *Document) {
			sub(d).Initial = "nope"
			d.Workflows[0].Chart.Transitions[2].To = "x"
		}, `wfjson: workflow "W": statechart: chart "S" initial state "nope" not found`},
		{"two dead ends", func(d *Document) {
			c := &d.Workflows[0].Chart
			c.Transitions = c.Transitions[:1]
		}, `wfjson: workflow "W": statechart: chart "W" state "a" is a dead end (no outgoing transitions and not final)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var doc Document
			if err := json.Unmarshal([]byte(errorsDoc), &doc); err != nil {
				t.Fatal(err)
			}
			if _, _, err := FromDocument(&doc); err != nil {
				t.Fatalf("the unbroken document: %v", err)
			}
			tc.mutate(&doc)
			_, _, err := FromDocument(&doc)
			if err == nil || err.Error() != tc.want {
				t.Errorf("got  %v\nwant %s", err, tc.want)
			}
		})
	}
}
