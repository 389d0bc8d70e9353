package wfjson

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// FingerprintDocument is Fingerprint(FromDocument(doc)) without building
// the spec objects. ok is false for a document FromDocument refuses or
// whose digest Fingerprint cannot compute, though not for every one: an
// invalid document may get a digest, but its canonical bytes show every
// field FromDocument validates, so it never shares a valid system's.
func FingerprintDocument(doc *Document) (fp string, ok bool) {
	c, ok := canonical(doc)
	if !ok {
		return "", false
	}
	fp, err := hashDocument(c)
	return fp, err == nil
}

// IsCanonical reports whether b, which doc was decoded from, is the form
// FingerprintDocument hashes, appendDocument(canonical(doc)), so that its
// hex SHA-256 is doc's fingerprint. A document canonical would not change
// (server types at their conversions' fixed point, states in StateNames
// order, the activities the charts reference in name order, no empty
// list) is compared as it is: nothing is copied or hashed again.
func IsCanonical(b []byte, doc *Document) bool {
	if !listed(doc.Environment.Types) || !listed(doc.Workflows) {
		return false
	}
	for _, st := range doc.Environment.Types {
		conv, err := serverTypeFromJSON(&st)
		if err != nil || serverTypeToJSON(conv) != st {
			return false
		}
	}
	refs := make([]string, 0, 32)
	for _, w := range doc.Workflows {
		refs = refs[:0]
		if !canonicalShape(&w.Chart, &refs) || !listed(w.Activities) {
			return false
		}
		slices.Sort(refs)
		if !slices.EqualFunc(slices.Compact(refs), w.Activities, func(ref string, a Activity) bool { return ref == a.Name }) {
			return false
		}
	}
	bp := canonicalBufs.Get().(*[]byte)
	buf, err := appendDocument((*bp)[:0], doc)
	same := err == nil && bytes.Equal(buf, b)
	if cap(buf) <= 64<<10 {
		*bp = buf
		canonicalBufs.Put(bp)
	}
	return same
}

// canonicalShape reports whether canonicalChart keeps c as it is, and
// appends the activities c's states name to refs.
func canonicalShape(c *Chart, refs *[]string) bool {
	if !listed(c.Transitions) {
		return false
	}
	order := stateOrder{c.Initial, c.Final}
	for i := range c.States {
		s := &c.States[i]
		if i > 0 && order.compare(c.States[i-1], *s) >= 0 {
			return false
		}
		if s.Activity != "" {
			*refs = append(*refs, s.Activity)
		}
		for j := range s.Subcharts {
			if !canonicalShape(&s.Subcharts[j], refs) {
				return false
			}
		}
	}
	return true
}

// listed reports whether s is nil or not empty, as canonical leaves it.
func listed[T any](s []T) bool {
	return s == nil || len(s) > 0
}

// hashDocument is the hex SHA-256 of json.Marshal(doc).
func hashDocument(doc *Document) (string, error) {
	bp := canonicalBufs.Get().(*[]byte)
	buf, err := appendDocument((*bp)[:0], doc)
	sum := sha256.Sum256(buf)
	if cap(buf) <= 64<<10 {
		*bp = buf
		canonicalBufs.Put(bp)
	}
	if err != nil {
		return "", fmt.Errorf("wfjson: fingerprinting document: %w", err)
	}
	return hex.EncodeToString(sum[:]), nil
}

// canonicalBufs recycles hashDocument's buffers, but not one an outsized
// document grew past 64 KB: the pool would keep it resident.
var canonicalBufs = sync.Pool{New: func() any { return new([]byte) }}

// canonical is ToDocument(FromDocument(doc)) as a copy sharing doc's
// strings, transitions and load maps: server types through both
// conversions, states in StateNames order, the referenced activities by
// name (the last of a name winning, as in FromDocument), empty lists
// nil. It refuses what the copy would not show FromDocument refusing (a
// server type, whose numbers it rewrites; a non-finite number in a
// dropped activity), a duplicate state and a missing profile.
func canonical(doc *Document) (*Document, bool) {
	out := &Document{
		Environment: Environment{Types: sized[ServerType](len(doc.Environment.Types))},
		Workflows:   sized[Workflow](len(doc.Workflows)),
	}
	for i := range doc.Environment.Types {
		st, err := serverTypeFromJSON(&doc.Environment.Types[i])
		if err != nil {
			return nil, false
		}
		out.Environment.Types = append(out.Environment.Types, serverTypeToJSON(st))
	}
	var refs []string
	for _, w := range doc.Workflows {
		refs = refs[:0]
		chart, ok := canonicalChart(&w.Chart, &refs)
		if !ok {
			return nil, false
		}
		if w.Activities, ok = canonicalActivities(w.Activities, refs); !ok {
			return nil, false
		}
		w.Chart = chart
		out.Workflows = append(out.Workflows, w)
	}
	return out, true
}

// canonicalChart is chartToJSON(chartFromJSON(c)); it appends the
// activities c's states name to refs.
func canonicalChart(c *Chart, refs *[]string) (Chart, bool) {
	out := *c
	if len(out.Transitions) == 0 {
		out.Transitions = nil
	}
	out.States = make([]State, len(c.States))
	for i, s := range c.States {
		if s.Activity != "" {
			*refs = append(*refs, s.Activity)
		}
		s.Subcharts = nil
		for j := range c.States[i].Subcharts {
			sub, ok := canonicalChart(&c.States[i].Subcharts[j], refs)
			if !ok {
				return Chart{}, false
			}
			s.Subcharts = append(s.Subcharts, sub)
		}
		out.States[i] = s
	}
	slices.SortFunc(out.States, stateOrder{c.Initial, c.Final}.compare)
	for i := 1; i < len(out.States); i++ {
		if out.States[i].Name == out.States[i-1].Name {
			return Chart{}, false
		}
	}
	return out, true
}

// stateOrder orders a chart's states as StateNames does: the initial
// state, the rest by name, the final state.
type stateOrder struct{ initial, final string }

func (o stateOrder) compare(a, b State) int {
	return cmp.Or(cmp.Compare(o.rank(a.Name), o.rank(b.Name)), strings.Compare(a.Name, b.Name))
}

func (o stateOrder) rank(name string) int {
	switch name {
	case o.initial:
		return 0
	case o.final:
		return 2
	}
	return 1
}

// canonicalActivities is ToDocument's activity list for charts that
// reference refs: per referenced name, in name order, the last of acts
// by that name.
func canonicalActivities(acts []Activity, refs []string) ([]Activity, bool) {
	slices.Sort(refs)
	refs = slices.Compact(refs)
	out := sized[Activity](len(refs))[:len(refs)]
	for i := len(acts) - 1; i >= 0; i-- {
		a := &acts[i]
		if !finite(a.MeanDuration) {
			return nil, false
		}
		for _, l := range a.Load {
			if !finite(l) {
				return nil, false
			}
		}
		if k, ok := slices.BinarySearch(refs, a.Name); ok && out[k].Name == "" {
			out[k] = *a
		}
	}
	for _, a := range out {
		if a.Name == "" {
			return nil, false // no profile
		}
	}
	return out, true
}
