package wfjson

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"

	"performa/internal/jsonscan"
)

// appendDocument appends json.Marshal(doc) to dst, byte for byte, without
// reflection: members in declaration order, omitempty members left out
// when zero (either zero, for a float), nil slices as null, load keys
// sorted. It is the serialisation under Fingerprint, so a byte of
// difference from json.Marshal would change every model-cache key; the
// tests pin the two against each other. A non-finite number, which
// json.Marshal refuses, is returned as the error json.Marshal reports.
func appendDocument(dst []byte, doc *Document) ([]byte, error) {
	w := writer{buf: dst}
	w.lit(`{"environment":{"types":`)
	appendArray(&w, doc.Environment.Types, (*writer).serverType)
	w.lit(`},"workflows":`)
	appendArray(&w, doc.Workflows, (*writer).workflow)
	w.lit(`}`)
	return w.buf, w.err
}

func (w *writer) serverType(st *ServerType) {
	w.str(`{"name":`, st.Name)
	w.str(`,"kind":`, st.Kind)
	w.float(`,"mean_service":`, st.MeanService)
	w.floatOmitEmpty(`,"service_scv":`, st.ServiceSCV)
	w.floatOmitEmpty(`,"mttf":`, st.MTTF)
	w.floatOmitEmpty(`,"mttr":`, st.MTTR)
	w.lit(`}`)
}

func (w *writer) workflow(f *Workflow) {
	w.str(`{"name":`, f.Name)
	w.float(`,"arrival_rate":`, f.ArrivalRate)
	w.lit(`,"chart":`)
	w.chart(&f.Chart)
	w.lit(`,"activities":`)
	appendArray(w, f.Activities, (*writer).activity)
	w.lit(`}`)
}

func (w *writer) chart(c *Chart) {
	w.str(`{"name":`, c.Name)
	w.str(`,"initial":`, c.Initial)
	w.str(`,"final":`, c.Final)
	w.lit(`,"states":`)
	appendArray(w, c.States, (*writer).state)
	w.lit(`,"transitions":`)
	appendArray(w, c.Transitions, (*writer).transition)
	w.lit(`}`)
}

func (w *writer) state(s *State) {
	w.str(`{"name":`, s.Name)
	w.strOmitEmpty(`,"activity":`, s.Activity)
	if s.Interactive {
		w.lit(`,"interactive":true`)
	}
	if len(s.Subcharts) > 0 {
		w.lit(`,"subcharts":`)
		appendArray(w, s.Subcharts, (*writer).chart)
	}
	w.lit(`}`)
}

func (w *writer) transition(t *Transition) {
	w.str(`{"from":`, t.From)
	w.str(`,"to":`, t.To)
	w.float(`,"prob":`, t.Prob)
	w.strOmitEmpty(`,"event":`, t.Event)
	w.strOmitEmpty(`,"cond":`, t.Cond)
	if len(t.Actions) > 0 {
		w.lit(`,"actions":`)
		appendArray(w, t.Actions, (*writer).action)
	}
	w.lit(`}`)
}

func (w *writer) action(a *Action) {
	w.str(`{"kind":`, a.Kind)
	w.str(`,"target":`, a.Target)
	w.lit(`}`)
}

func (w *writer) activity(a *Activity) {
	w.str(`{"name":`, a.Name)
	w.float(`,"mean_duration":`, a.MeanDuration)
	if a.Stages != 0 {
		w.lit(`,"stages":`)
		w.buf = strconv.AppendInt(w.buf, int64(a.Stages), 10)
	}
	if len(a.Load) > 0 {
		w.keys = w.keys[:0]
		for k := range a.Load {
			w.keys = append(w.keys, k)
		}
		slices.Sort(w.keys)
		w.lit(`,"load":{`)
		for i, k := range w.keys {
			if i > 0 {
				w.lit(`,`)
			}
			w.str(``, k)
			w.float(`:`, a.Load[k])
		}
		w.lit(`}`)
	}
	w.lit(`}`)
}

// writer accumulates the serialisation; err is the first value
// json.Marshal would have refused.
type writer struct {
	buf  []byte
	keys []string // load-key scratch, reused across activities
	err  error
}

func (w *writer) lit(s string) {
	w.buf = append(w.buf, s...)
}

// appendArray writes s as json.Marshal writes a slice: null for nil, else
// the elements, each by elem, in brackets.
func appendArray[T any](w *writer, s []T, elem func(*writer, *T)) {
	if s == nil {
		w.lit(`null`)
		return
	}
	w.lit(`[`)
	for i := range s {
		if i > 0 {
			w.lit(`,`)
		}
		elem(w, &s[i])
	}
	w.lit(`]`)
}

// str writes prefix and s quoted as json.Marshal quotes it. A string of
// printable ASCII without the bytes json.Marshal escapes (", \, and <, >,
// & for HTML) is its own encoding; any other goes through json.Marshal.
func (w *writer) str(prefix, s string) {
	w.lit(prefix)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			w.buf = append(w.buf, quoted...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

func (w *writer) strOmitEmpty(prefix, s string) {
	if s != "" {
		w.str(prefix, s)
	}
}

// float writes prefix and f in encoding/json's float64 format, with its
// error for the values it refuses.
func (w *writer) float(prefix string, f float64) {
	w.lit(prefix)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	w.buf = jsonscan.AppendFloat(w.buf, f)
}

func (w *writer) floatOmitEmpty(prefix string, f float64) {
	if f != 0 {
		w.float(prefix, f)
	}
}
