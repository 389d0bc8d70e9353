package wfjson

import (
	"strconv"

	"performa/internal/jsonscan"
)

// maxChartDepth bounds how deep subcharts may nest before the parser
// refuses; encoding/json has its own, far larger bound and its own error
// for it, which is what a client nesting that deep must see.
const maxChartDepth = 16

// ParseDocument is the one-pass parser for the dialect every producer of
// these documents writes (the corpus files, ToDocument through Encode or
// json.Marshal): objects whose keys are the schema's JSON names spelled
// exactly, strings with no escape and no control byte that are valid
// UTF-8, strict JSON number literals that strconv parses into the
// field's type without error, true/false for the one boolean, JSON
// whitespace between tokens. It decodes the document that starts at b's
// first non-space byte into doc, which must be zero, and returns the
// index after the document's closing brace; what follows is the caller's
// to check.
//
// It reports whether the input was that dialect and never reports an
// error or guesses: on false — an unknown or case-variant key, a null,
// an escape, a literal strconv rejects, a repeated array or load member
// (a repeated scalar overwrites the first, here as in encoding/json; a
// repeated array or map it would merge), subcharts nested deeper than
// maxChartDepth, malformed JSON — doc may be partly written and the
// caller decodes the same bytes with encoding/json from a zero Document,
// which stays the definition of what a document means. On true doc is
// what that decode would have produced, and no string in it aliases b.
func ParseDocument(b []byte, doc *Document) (end int, ok bool) {
	p := parser{b: b, s: string(b), i: jsonscan.SkipSpace(b, 0)}
	p.document(doc)
	return p.i, !p.bad
}

// parser is a cursor over the input. The first token that is not the
// dialect's sets bad and moves the cursor to the end of the input, where
// every later step fails at once, so the descent needs no error plumbing.
type parser struct {
	b     []byte
	s     string // a copy of b, which the document's strings are cut from
	i     int
	bad   bool
	depth int // charts open around the cursor
}

func (p *parser) fail() {
	p.bad, p.i = true, len(p.b)
}

// open consumes the opening bracket of an object or array and reports
// whether a first member follows (false for {} and []).
func (p *parser) open(bracket, closing byte) bool {
	if p.i >= len(p.b) || p.b[p.i] != bracket {
		p.fail()
		return false
	}
	p.i = jsonscan.SkipSpace(p.b, p.i+1)
	if p.i < len(p.b) && p.b[p.i] == closing {
		p.i++
		return false
	}
	return true
}

// more consumes what follows a member — a comma, or the closing bracket
// — and reports whether another member follows.
func (p *parser) more(closing byte) bool {
	p.i = jsonscan.SkipSpace(p.b, p.i)
	if p.i < len(p.b) {
		switch p.b[p.i] {
		case ',':
			p.i = jsonscan.SkipSpace(p.b, p.i+1)
			return true
		case closing:
			p.i++
			return false
		}
	}
	p.fail()
	return false
}

// key consumes an object key and its colon. The content aliases the
// input: switch on it, do not keep it.
func (p *parser) key() []byte {
	val, next, ok := jsonscan.PlainString(p.b, p.i)
	if !ok {
		p.fail()
		return nil
	}
	if p.i = jsonscan.SkipSpace(p.b, next); p.i >= len(p.b) || p.b[p.i] != ':' {
		p.fail()
		return nil
	}
	p.i = jsonscan.SkipSpace(p.b, p.i+1)
	return val
}

func (p *parser) str() string {
	val, next, ok := jsonscan.PlainString(p.b, p.i)
	if !ok {
		p.fail()
		return ""
	}
	p.i = next
	return p.s[next-1-len(val) : next-1] // val, up to its closing quote
}

// number returns the literal at the cursor and its digits, for the
// conversion encoding/json makes (Decimal.Float is ParseFloat's); a literal
// it refuses ("1.0" for an int, "1e999") is the fallback's to report.
func (p *parser) number() ([]byte, jsonscan.Decimal) {
	end, d := jsonscan.Number(p.b, p.i)
	if end < 0 {
		p.fail()
		return nil, d
	}
	lit := p.b[p.i:end]
	p.i = end
	return lit, d
}

func (p *parser) float() float64 {
	lit, d := p.number()
	f, err := d.Float(lit)
	if err != nil {
		p.fail()
	}
	return f
}

func (p *parser) integer() int {
	lit, _ := p.number()
	n, err := strconv.Atoi(string(lit))
	if err != nil {
		p.fail()
	}
	return n
}

func (p *parser) boolean() bool {
	rest := p.b[p.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false
	}
	p.fail()
	return false
}

// array parses a JSON array whose elements elem parses into *dst. An
// empty array is an empty slice, not nil: encoding/json tells the two
// apart. A member seen before (*dst is not nil) is refused: encoding/json
// would merge the second array into the first, element by element.
func array[T any](p *parser, dst *[]T, elem func(*parser, *T)) {
	if *dst != nil {
		p.fail()
	}
	out := []T{}
	for ok := p.open('[', ']'); ok; ok = p.more(']') {
		out = append(out, *new(T))
		elem(p, &out[len(out)-1])
	}
	*dst = out
}

func (p *parser) document(doc *Document) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "environment":
			p.environment(&doc.Environment)
		case "workflows":
			array(p, &doc.Workflows, (*parser).workflow)
		default:
			p.fail()
		}
	}
}

func (p *parser) environment(env *Environment) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "types":
			array(p, &env.Types, (*parser).serverType)
		default:
			p.fail()
		}
	}
}

func (p *parser) serverType(st *ServerType) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "name":
			st.Name = p.str()
		case "kind":
			st.Kind = p.str()
		case "mean_service":
			st.MeanService = p.float()
		case "service_scv":
			st.ServiceSCV = p.float()
		case "mttf":
			st.MTTF = p.float()
		case "mttr":
			st.MTTR = p.float()
		default:
			p.fail()
		}
	}
}

func (p *parser) workflow(w *Workflow) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "name":
			w.Name = p.str()
		case "arrival_rate":
			w.ArrivalRate = p.float()
		case "chart":
			p.chart(&w.Chart)
		case "activities":
			array(p, &w.Activities, (*parser).activity)
		default:
			p.fail()
		}
	}
}

func (p *parser) chart(c *Chart) {
	if p.depth++; p.depth > maxChartDepth {
		p.fail()
	}
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "name":
			c.Name = p.str()
		case "initial":
			c.Initial = p.str()
		case "final":
			c.Final = p.str()
		case "states":
			array(p, &c.States, (*parser).state)
		case "transitions":
			array(p, &c.Transitions, (*parser).transition)
		default:
			p.fail()
		}
	}
	p.depth--
}

func (p *parser) state(s *State) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "name":
			s.Name = p.str()
		case "activity":
			s.Activity = p.str()
		case "interactive":
			s.Interactive = p.boolean()
		case "subcharts":
			array(p, &s.Subcharts, (*parser).chart)
		default:
			p.fail()
		}
	}
}

func (p *parser) transition(t *Transition) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "from":
			t.From = p.str()
		case "to":
			t.To = p.str()
		case "prob":
			t.Prob = p.float()
		case "event":
			t.Event = p.str()
		case "cond":
			t.Cond = p.str()
		case "actions":
			array(p, &t.Actions, (*parser).action)
		default:
			p.fail()
		}
	}
}

func (p *parser) action(a *Action) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "kind":
			a.Kind = p.str()
		case "target":
			a.Target = p.str()
		default:
			p.fail()
		}
	}
}

func (p *parser) activity(a *Activity) {
	for ok := p.open('{', '}'); ok; ok = p.more('}') {
		switch string(p.key()) {
		case "name":
			a.Name = p.str()
		case "mean_duration":
			a.MeanDuration = p.float()
		case "stages":
			a.Stages = p.integer()
		case "load":
			if a.Load != nil {
				p.fail() // encoding/json would merge the second map into the first
			}
			a.Load = map[string]float64{}
			for ok := p.open('{', '}'); ok; ok = p.more('}') {
				start := p.i + 1
				key := p.key()
				a.Load[p.s[start:start+len(key)]] = p.float()
			}
		default:
			p.fail()
		}
	}
}
