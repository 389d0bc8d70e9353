package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer was created. Parent is the ID of the span that caused it (0 for
// a root); spans of one request share Request.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// Root span names. An "http.op" root is one client-observed operation of
// a traced round. A "replay" root holds the layer calls that re-execute
// that request in process; its children tile the work the server did. A
// "probe" root holds re-executions of calls that happen inside a replay
// layer (spec.Build's solves, the evaluations inside a planner), which
// cannot be timed from outside while the layer runs.
const (
	spanOp     = "http.op"
	spanReplay = "replay"
	spanProbe  = "probe"
)

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the direct pipeline serves the untraced oracle unchanged.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, request int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: start, End: end})
	return id
}

// open starts a span whose children are recorded before it ends.
func (t *tracer) open(name string, parent, request int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, request, t.now(), -1)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// do times fn as a leaf span.
func (t *tracer) do(name string, parent, request int, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(name, parent, request, start, t.now())
}

// sumMS returns the summed duration of the spans with the given name.
func (t *tracer) sumMS(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// selfMS returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfMS() map[int]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, c := range kids {
			from, to := max(c.Start, at), min(c.End, s.End)
			if to > from {
				covered += to - from
				at = to
			}
		}
		out[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// layerSelfMS sums the self time of every layer span under the replay
// roots — the part of the round the named layers account for — apart for
// the replayed operations and for the rest of the round (request -1: what
// a round does before its first operation).
func (t *tracer) layerSelfMS() (ops, rest float64) {
	self := t.selfMS()
	replayRoots := make(map[int]bool)
	for _, s := range t.spans {
		if s.Name == spanReplay {
			replayRoots[s.ID] = true
		}
	}
	for _, s := range t.spans {
		switch {
		case !replayRoots[s.Parent]:
		case s.Request >= 0:
			ops += self[s.ID]
		default:
			rest += self[s.ID]
		}
	}
	return ops, rest
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
