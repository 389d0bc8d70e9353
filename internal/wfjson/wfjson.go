// Package wfjson de/serializes server environments and workflow
// specifications as JSON documents, so the command-line tools can assess
// and plan systems that are not compiled in. The format mirrors the spec
// and statechart types one-to-one:
//
//	{
//	  "environment": {
//	    "types": [
//	      {"name": "orb", "kind": "communication",
//	       "mean_service": 0.0005, "service_scv": 1,
//	       "mttf": 43200, "mttr": 10}
//	    ]
//	  },
//	  "workflows": [
//	    {"name": "EP", "arrival_rate": 1,
//	     "chart": {
//	       "name": "EP", "initial": "init", "final": "done",
//	       "states": [
//	         {"name": "init"},
//	         {"name": "order", "activity": "NewOrder", "interactive": true},
//	         {"name": "ship", "subcharts": [ ...nested charts... ]},
//	         {"name": "done"}
//	       ],
//	       "transitions": [
//	         {"from": "init", "to": "order", "prob": 1},
//	         {"from": "order", "to": "ship", "prob": 1,
//	          "event": "NewOrder_DONE", "cond": "!CardProblem",
//	          "actions": [{"kind": "set-true", "target": "Paid"}]}
//	       ]
//	     },
//	     "activities": [
//	       {"name": "NewOrder", "mean_duration": 5, "stages": 1,
//	        "load": {"orb": 2, "engine": 3}}
//	     ]}
//	  ]
//	}
//
// Times share one unit across the document (the examples use minutes);
// service times are given as mean plus squared coefficient of variation
// (scv; 1 = exponential), failures as mean time to failure and repair.
package wfjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"performa/internal/spec"
	"performa/internal/statechart"
	"performa/internal/wfmserr"
)

// Document is the top-level JSON structure.
type Document struct {
	Environment Environment `json:"environment"`
	Workflows   []Workflow  `json:"workflows"`
}

// Environment lists the server types.
type Environment struct {
	Types []ServerType `json:"types"`
}

// ServerType mirrors spec.ServerType in deployment-friendly units.
type ServerType struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"` // communication | engine | application
	MeanService float64 `json:"mean_service"`
	ServiceSCV  float64 `json:"service_scv,omitempty"` // default 1 (exponential)
	MTTF        float64 `json:"mttf,omitempty"`        // 0 = never fails
	MTTR        float64 `json:"mttr,omitempty"`
}

// Workflow mirrors spec.Workflow.
type Workflow struct {
	Name        string     `json:"name"`
	ArrivalRate float64    `json:"arrival_rate"`
	Chart       Chart      `json:"chart"`
	Activities  []Activity `json:"activities"`
}

// Chart mirrors statechart.Chart.
type Chart struct {
	Name        string       `json:"name"`
	Initial     string       `json:"initial"`
	Final       string       `json:"final"`
	States      []State      `json:"states"`
	Transitions []Transition `json:"transitions"`
}

// State mirrors statechart.State.
type State struct {
	Name        string  `json:"name"`
	Activity    string  `json:"activity,omitempty"`
	Interactive bool    `json:"interactive,omitempty"`
	Subcharts   []Chart `json:"subcharts,omitempty"`
}

// Transition mirrors statechart.Transition.
type Transition struct {
	From    string   `json:"from"`
	To      string   `json:"to"`
	Prob    float64  `json:"prob"`
	Event   string   `json:"event,omitempty"`
	Cond    string   `json:"cond,omitempty"`
	Actions []Action `json:"actions,omitempty"`
}

// Action mirrors statechart.Action with a string kind.
type Action struct {
	Kind   string `json:"kind"` // start | set-true | set-false | raise
	Target string `json:"target"`
}

// Activity mirrors spec.ActivityProfile.
type Activity struct {
	Name         string             `json:"name"`
	MeanDuration float64            `json:"mean_duration"`
	Stages       int                `json:"stages,omitempty"`
	Load         map[string]float64 `json:"load,omitempty"`
}

var kindNames = map[string]spec.ServerKind{
	"communication": spec.Communication,
	"engine":        spec.Engine,
	"application":   spec.Application,
	"directory":     spec.Directory,
	"worklist":      spec.Worklist,
}

var kindStrings = map[spec.ServerKind]string{
	spec.Communication: "communication",
	spec.Engine:        "engine",
	spec.Application:   "application",
	spec.Directory:     "directory",
	spec.Worklist:      "worklist",
}

var actionKinds = map[string]statechart.ActionKind{
	"start":     statechart.ActionStart,
	"set-true":  statechart.ActionSetTrue,
	"set-false": statechart.ActionSetFalse,
	"raise":     statechart.ActionRaise,
}

var actionStrings = map[statechart.ActionKind]string{
	statechart.ActionStart:    "start",
	statechart.ActionSetTrue:  "set-true",
	statechart.ActionSetFalse: "set-false",
	statechart.ActionRaise:    "raise",
}

// Decode parses a document and converts it into a validated environment
// and workflow list. encoding/json (strict: unknown fields are errors)
// defines what the input means and words every parse error; a document
// in the dialect ParseDocument accepts is decoded by it instead, and
// which of the two runs depends only on what the input contains. Like a
// json.Decoder, Decode reads one document and ignores what follows it.
func Decode(r io.Reader) (*spec.Environment, []*spec.Workflow, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("wfjson: parsing document: %w", err)
	}
	var doc Document
	if _, ok := ParseDocument(b, &doc); !ok {
		doc = Document{}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil {
			return nil, nil, fmt.Errorf("wfjson: parsing document: %w", err)
		}
	}
	return FromDocument(&doc)
}

// finite reports whether v is a number downstream solvers can take: they
// assume finite inputs, and a derived Inf (e.g. an overflowed second
// moment or a 1/MTTF that rounds to +Inf) would otherwise slip past range
// checks like x > 0.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// nonFinite is the typed error for a user-supplied (or derived) numeric
// field that is not finite. Callers name the owner only here, on the
// error path: formatting it costs more than every check it would label.
func nonFinite(owner, field string, v float64) error {
	return wfmserr.New(wfmserr.CodeInvalidModel, "wfjson", "%s: %s %v is not finite", owner, field, v)
}

// FromDocument converts a parsed document into model inputs.
func FromDocument(doc *Document) (*spec.Environment, []*spec.Workflow, error) {
	types := make([]spec.ServerType, 0, len(doc.Environment.Types))
	for i := range doc.Environment.Types {
		out, err := serverTypeFromJSON(&doc.Environment.Types[i])
		if err != nil {
			return nil, nil, err
		}
		types = append(types, out)
	}
	env, err := spec.NewEnvironment(types...)
	if err != nil {
		return nil, nil, err
	}

	var flows []*spec.Workflow
	for _, w := range doc.Workflows {
		chart, err := chartFromJSON(&w.Chart)
		if err == nil {
			err = chart.Validate()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wfjson: workflow %q: %w", w.Name, err)
		}
		profiles := make(map[string]spec.ActivityProfile, len(w.Activities))
		for _, act := range w.Activities {
			owner := func() string { return fmt.Sprintf("workflow %q: activity %q", w.Name, act.Name) }
			if !finite(act.MeanDuration) {
				return nil, nil, nonFinite(owner(), "mean_duration", act.MeanDuration)
			}
			for serverType, l := range act.Load {
				if !finite(l) {
					return nil, nil, nonFinite(owner(), "load["+serverType+"]", l)
				}
			}
			profiles[act.Name] = spec.ActivityProfile{
				Name:           act.Name,
				MeanDuration:   act.MeanDuration,
				DurationStages: act.Stages,
				Load:           act.Load,
			}
		}
		if !finite(w.ArrivalRate) {
			return nil, nil, nonFinite(fmt.Sprintf("workflow %q", w.Name), "arrival_rate", w.ArrivalRate)
		}
		flow := &spec.Workflow{
			Name:        w.Name,
			Chart:       chart,
			Profiles:    profiles,
			ArrivalRate: w.ArrivalRate,
		}
		if err := flow.ValidateParameters(env); err != nil {
			return nil, nil, err
		}
		flows = append(flows, flow)
	}
	if len(flows) == 0 {
		return nil, nil, fmt.Errorf("wfjson: document has no workflows")
	}
	return env, flows, nil
}

// serverTypeFromJSON converts one document server type, with the checks
// FromDocument makes on it before the environment validates it.
func serverTypeFromJSON(st *ServerType) (spec.ServerType, error) {
	kind, ok := kindNames[st.Kind]
	if !ok {
		return spec.ServerType{}, fmt.Errorf("wfjson: server type %q: unknown kind %q (want communication, engine, application, directory, or worklist)", st.Name, st.Kind)
	}
	scv := st.ServiceSCV
	if scv == 0 {
		scv = 1
	}
	if scv < 0 {
		return spec.ServerType{}, fmt.Errorf("wfjson: server type %q: negative service scv %v", st.Name, scv)
	}
	out := spec.ServerType{
		Name:                st.Name,
		Kind:                kind,
		MeanService:         st.MeanService,
		ServiceSecondMoment: (1 + scv) * st.MeanService * st.MeanService,
	}
	if st.MTTF > 0 {
		out.FailureRate = 1 / st.MTTF
	}
	if st.MTTR > 0 {
		out.RepairRate = 1 / st.MTTR
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"mean_service", st.MeanService},
		{"service_scv", scv},
		{"mttf", st.MTTF},
		{"mttr", st.MTTR},
		{"derived service second moment", out.ServiceSecondMoment},
		{"derived failure rate (1/mttf)", out.FailureRate},
		{"derived repair rate (1/mttr)", out.RepairRate},
	} {
		if !finite(f.v) {
			return spec.ServerType{}, nonFinite(fmt.Sprintf("server type %q", st.Name), f.name, f.v)
		}
	}
	return out, nil
}

// chartFromJSON converts a chart and its subcharts; FromDocument validates.
func chartFromJSON(c *Chart) (*statechart.Chart, error) {
	out := &statechart.Chart{
		Name:    c.Name,
		Initial: c.Initial,
		Final:   c.Final,
		States:  make(map[string]*statechart.State, len(c.States)),
	}
	for _, s := range c.States {
		if _, dup := out.States[s.Name]; dup {
			return nil, fmt.Errorf("chart %q: duplicate state %q", c.Name, s.Name)
		}
		st := &statechart.State{
			Name:        s.Name,
			Activity:    s.Activity,
			Interactive: s.Interactive,
		}
		for i := range s.Subcharts {
			sub, err := chartFromJSON(&s.Subcharts[i])
			if err != nil {
				return nil, err
			}
			st.Subcharts = append(st.Subcharts, sub)
		}
		out.States[s.Name] = st
	}
	for _, t := range c.Transitions {
		tr := &statechart.Transition{
			From:  t.From,
			To:    t.To,
			Prob:  t.Prob,
			Event: t.Event,
			Cond:  t.Cond,
		}
		for _, a := range t.Actions {
			kind, ok := actionKinds[a.Kind]
			if !ok {
				return nil, fmt.Errorf("chart %q: transition %s→%s: unknown action kind %q", c.Name, t.From, t.To, a.Kind)
			}
			tr.Actions = append(tr.Actions, statechart.Action{Kind: kind, Target: a.Target})
		}
		out.Transitions = append(out.Transitions, tr)
	}
	return out, nil
}

// Fingerprint returns a stable hex digest identifying the modeled system
// — the environment plus the workflow mix with its arrival rates: the
// SHA-256 of its canonical document (ToDocument's, which orders states,
// transitions and activities deterministically) as json.Marshal would
// write it. Two systems share a fingerprint exactly when their canonical
// documents are byte-identical, so the digest is a safe cache key for
// model state derived purely from the system: analyses and availability
// marginals. FingerprintDocument reaches the same digest from a posted
// document without building the system.
func Fingerprint(env *spec.Environment, flows []*spec.Workflow) (string, error) {
	doc, err := ToDocument(env, flows)
	if err != nil {
		return "", err
	}
	return hashDocument(doc)
}

// Encode writes the environment and workflows as an indented document.
func Encode(w io.Writer, env *spec.Environment, flows []*spec.Workflow) error {
	doc, err := ToDocument(env, flows)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// stableSCV recovers the service squared coefficient of variation from
// the stored second moment such that the emitted value survives the
// document round trip: FromDocument re-derives the second moment as
// (1+scv)·m², so the scv written here must map back to the same second
// moment bit for bit, or every encode/decode cycle would drift the
// value by an ulp and change the document's fingerprint. Many doubles
// share one derived second moment; canonSCV picks a representative of
// that preimage, so a second moment some scv maps onto settles at once,
// and one no scv maps onto (the multiply leaves gaps between
// representable products) settles on the next: the emitted scv is then
// canonSCV of its own image, which is what makes the canonical document
// a fixed point of the round trip. The bound is a safety valve.
func stableSCV(secondMoment, mean float64) float64 {
	scv := canonSCV(secondMoment, mean)
	for i := 0; i < 8; i++ {
		next := canonSCV((1+scv)*mean*mean, mean)
		if next == scv {
			break
		}
		scv = next
	}
	return scv
}

// canonSCV returns the canonical scv for a stored second moment: a
// positive double whose FromDocument image — the expression (1+scv)·m²,
// replicated operation for operation — equals the second moment
// exactly. It prefers the cleanest one (0.5 rather than
// 0.5000000000000016): the shortest decimal rounding of the plain
// quotient that maps back; failing that, the nearest 1+scv within eight
// ulps of the quotient's: the image's four roundings put a preimage, when
// there is one, within four.
// If no scv maps onto it, the plain quotient is returned and stableSCV's
// iteration takes over. Zero is never emitted: the wire format reads an
// absent/zero scv as the exponential default 1.
func canonSCV(secondMoment, mean float64) float64 {
	raw := secondMoment/(mean*mean) - 1
	try := func(c float64) bool {
		return c > 0 && (1+c)*mean*mean == secondMoment
	}
	if half := math.Round(raw*2) / 2; try(half) {
		return half
	}
	for digits := 1; digits <= 17; digits++ {
		c, err := strconv.ParseFloat(strconv.FormatFloat(raw, 'g', digits, 64), 64)
		if err == nil && try(c) {
			return c
		}
	}
	// u−1 is exact for every u ≥ 1 below 2^53, so 1+(u−1) is u again.
	lo, hi := 1+raw, 1+raw
	for range 8 {
		lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		if try(lo - 1) {
			return lo - 1
		}
		if try(hi - 1) {
			return hi - 1
		}
	}
	return raw
}

// ToDocument converts model inputs into the JSON document form.
func ToDocument(env *spec.Environment, flows []*spec.Workflow) (*Document, error) {
	doc := &Document{}
	types := env.Types()
	doc.Environment.Types = sized[ServerType](len(types))
	doc.Workflows = sized[Workflow](len(flows))
	for _, st := range types {
		doc.Environment.Types = append(doc.Environment.Types, serverTypeToJSON(st))
	}
	for _, f := range flows {
		jw := Workflow{Name: f.Name, ArrivalRate: f.ArrivalRate}
		chart, err := chartToJSON(f.Chart)
		if err != nil {
			return nil, err
		}
		jw.Chart = *chart
		// Deterministic activity order for stable output.
		activities := f.Chart.Activities()
		jw.Activities = sized[Activity](len(activities))
		for _, act := range activities {
			p := f.Profiles[act]
			jw.Activities = append(jw.Activities, Activity{
				Name:         p.Name,
				MeanDuration: p.MeanDuration,
				Stages:       p.DurationStages,
				Load:         p.Load,
			})
		}
		doc.Workflows = append(doc.Workflows, jw)
	}
	return doc, nil
}

// serverTypeToJSON is ToDocument's form of one server type.
func serverTypeToJSON(st spec.ServerType) ServerType {
	jt := ServerType{
		Name:        st.Name,
		Kind:        kindStrings[st.Kind],
		MeanService: st.MeanService,
	}
	if st.MeanService > 0 {
		jt.ServiceSCV = stableSCV(st.ServiceSecondMoment, st.MeanService)
	}
	if st.FailureRate > 0 {
		jt.MTTF = 1 / st.FailureRate
	}
	if st.RepairRate > 0 {
		jt.MTTR = 1 / st.RepairRate
	}
	return jt
}

// sized returns an empty slice with room for n elements, nil for none: a
// document's empty lists are nil, which is what marshals as null and so
// what the fingerprint has always hashed.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

func chartToJSON(c *statechart.Chart) (*Chart, error) {
	out := &Chart{Name: c.Name, Initial: c.Initial, Final: c.Final}
	names := c.StateNames()
	out.States = sized[State](len(names))
	out.Transitions = sized[Transition](len(c.Transitions))
	for _, name := range names {
		s := c.States[name]
		js := State{Name: s.Name, Activity: s.Activity, Interactive: s.Interactive}
		for _, sub := range s.Subcharts {
			jc, err := chartToJSON(sub)
			if err != nil {
				return nil, err
			}
			js.Subcharts = append(js.Subcharts, *jc)
		}
		out.States = append(out.States, js)
	}
	for _, t := range c.Transitions {
		jt := Transition{From: t.From, To: t.To, Prob: t.Prob, Event: t.Event, Cond: t.Cond}
		for _, a := range t.Actions {
			kind, ok := actionStrings[a.Kind]
			if !ok {
				return nil, fmt.Errorf("chart %q: unknown action kind %d", c.Name, a.Kind)
			}
			jt.Actions = append(jt.Actions, Action{Kind: kind, Target: a.Target})
		}
		out.Transitions = append(out.Transitions, jt)
	}
	return out, nil
}
