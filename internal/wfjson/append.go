package wfjson

import (
	"slices"

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
	w := &writer{Writer: jsonscan.Writer{Buf: dst}}
	w.Lit(`{"environment":{"types":`)
	jsonscan.AppendArray(w, doc.Environment.Types, (*writer).serverType)
	w.Lit(`},"workflows":`)
	jsonscan.AppendArray(w, doc.Workflows, (*writer).workflow)
	w.Lit(`}`)
	return w.Buf, w.Err
}

func (w *writer) serverType(st *ServerType) {
	w.Str(`{"name":`, st.Name).Str(`,"kind":`, st.Kind).Float(`,"mean_service":`, st.MeanService).
		FloatOmitEmpty(`,"service_scv":`, st.ServiceSCV).FloatOmitEmpty(`,"mttf":`, st.MTTF).
		FloatOmitEmpty(`,"mttr":`, st.MTTR).Lit(`}`)
}

func (w *writer) workflow(f *Workflow) {
	w.Str(`{"name":`, f.Name).Float(`,"arrival_rate":`, f.ArrivalRate).Lit(`,"chart":`)
	w.chart(&f.Chart)
	w.Lit(`,"activities":`)
	jsonscan.AppendArray(w, f.Activities, (*writer).activity)
	w.Lit(`}`)
}

func (w *writer) chart(c *Chart) {
	w.Str(`{"name":`, c.Name).Str(`,"initial":`, c.Initial).Str(`,"final":`, c.Final).Lit(`,"states":`)
	jsonscan.AppendArray(w, c.States, (*writer).state)
	w.Lit(`,"transitions":`)
	jsonscan.AppendArray(w, c.Transitions, (*writer).transition)
	w.Lit(`}`)
}

func (w *writer) state(s *State) {
	w.Str(`{"name":`, s.Name).StrOmitEmpty(`,"activity":`, s.Activity)
	if s.Interactive {
		w.Lit(`,"interactive":true`)
	}
	if len(s.Subcharts) > 0 {
		w.Lit(`,"subcharts":`)
		jsonscan.AppendArray(w, s.Subcharts, (*writer).chart)
	}
	w.Lit(`}`)
}

func (w *writer) transition(t *Transition) {
	w.Str(`{"from":`, t.From).Str(`,"to":`, t.To).Float(`,"prob":`, t.Prob).
		StrOmitEmpty(`,"event":`, t.Event).StrOmitEmpty(`,"cond":`, t.Cond)
	if len(t.Actions) > 0 {
		w.Lit(`,"actions":`)
		jsonscan.AppendArray(w, t.Actions, (*writer).action)
	}
	w.Lit(`}`)
}

func (w *writer) action(a *Action) {
	w.Str(`{"kind":`, a.Kind).Str(`,"target":`, a.Target).Lit(`}`)
}

func (w *writer) activity(a *Activity) {
	w.Str(`{"name":`, a.Name).Float(`,"mean_duration":`, a.MeanDuration)
	if a.Stages != 0 {
		w.Int(`,"stages":`, int64(a.Stages))
	}
	if len(a.Load) > 0 {
		w.keys = w.keys[:0]
		for k := range a.Load {
			w.keys = append(w.keys, k)
		}
		slices.Sort(w.keys)
		w.Lit(`,"load":{`)
		for i, k := range w.keys {
			if i > 0 {
				w.Lit(`,`)
			}
			w.Str(``, k).Float(`:`, a.Load[k])
		}
		w.Lit(`}`)
	}
	w.Lit(`}`)
}

// writer is the serialisation: a jsonscan.Writer and the load-key
// scratch, reused across activities.
type writer struct {
	jsonscan.Writer
	keys []string
}
