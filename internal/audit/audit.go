// Package audit defines the audit-trail record format of the WFMS and an
// in-memory/JSON-lines trail store. Audit trails are the calibration
// source of the configuration tool (Sections 3.2 and 7.1): transition
// probabilities, state residence times, and service-time moments are
// estimated from them once the system is operational.
package audit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// MaxLineBytes bounds one JSON-lines record on the read path (16 MiB).
// Longer lines fail the parse with a line-numbered error instead of
// silently truncating.
const MaxLineBytes = 16 * 1024 * 1024

// EventKind enumerates audit record types.
type EventKind string

const (
	// InstanceStarted records the creation of a workflow instance.
	InstanceStarted EventKind = "instance_started"
	// InstanceCompleted records the termination of a workflow instance.
	InstanceCompleted EventKind = "instance_completed"
	// StateEntered records the control flow entering a statechart
	// state.
	StateEntered EventKind = "state_entered"
	// StateLeft records the control flow leaving a state.
	StateLeft EventKind = "state_left"
	// ActivityStarted records an activity invocation.
	ActivityStarted EventKind = "activity_started"
	// ActivityCompleted records an activity termination.
	ActivityCompleted EventKind = "activity_completed"
	// ServiceRequest records one service request processed by a server,
	// with its waiting and service durations.
	ServiceRequest EventKind = "service_request"
)

// Record is one audit-trail entry. Timestamps are in the deployment's
// time unit.
type Record struct {
	// Kind classifies the record.
	Kind EventKind `json:"kind"`
	// Time is the event timestamp.
	Time float64 `json:"time"`
	// Workflow is the workflow type name.
	Workflow string `json:"workflow,omitempty"`
	// Instance identifies the workflow instance.
	Instance uint64 `json:"instance,omitempty"`
	// Chart is the (sub)chart name for state events.
	Chart string `json:"chart,omitempty"`
	// State is the state name for state events.
	State string `json:"state,omitempty"`
	// Activity is the activity type for activity events.
	Activity string `json:"activity,omitempty"`
	// ServerType is the server-type name for service requests.
	ServerType string `json:"server_type,omitempty"`
	// Server is the replica id for service requests.
	Server int `json:"server,omitempty"`
	// Waiting is the request's queueing delay (ServiceRequest only).
	Waiting float64 `json:"waiting,omitempty"`
	// Service is the request's service duration (ServiceRequest only).
	Service float64 `json:"service,omitempty"`
}

// Trail is a concurrency-safe collector of audit records. Appends from a
// live system arrive in time order, so the trail tracks sortedness
// instead of re-sorting on every read: an in-order append stream (the
// common case — simulator runs, streaming ingestion)
// never pays for a sort at all, and an out-of-order trail is sorted once
// under the lock on the next read, not once per read.
type Trail struct {
	mu     sync.Mutex
	chunks [][]Record // appends go to the last one
	n      int
	last   float64 // Time of the last record appended
	sorted bool    // records are in nondecreasing Time order
}

// trailChunk is the record capacity of a chunk (about 560 KB): the
// records are held in chunks, so a growing trail never copies them.
const trailChunk = 4096

// NewTrail returns an empty trail.
func NewTrail() *Trail { return &Trail{sorted: true} }

// Append adds one record.
func (t *Trail) Append(r Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(r)
}

// AppendBatch adds records in order with one lock acquisition and at
// most one allocation — the ingestion-path variant of Append.
func (t *Trail) AppendBatch(recs []Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reserveLocked(len(recs))
	for _, r := range recs {
		t.appendLocked(r)
	}
}

// reserveLocked makes room for n more records in the last chunk.
func (t *Trail) reserveLocked(n int) {
	if k := len(t.chunks) - 1; n > 0 && (k < 0 || cap(t.chunks[k])-len(t.chunks[k]) < n) {
		t.chunks = append(t.chunks, make([]Record, 0, max(n, trailChunk)))
	}
}

func (t *Trail) appendLocked(r Record) {
	if t.sorted && t.n > 0 && r.Time < t.last {
		t.sorted = false
	}
	t.reserveLocked(1)
	k := len(t.chunks) - 1
	t.chunks[k] = append(t.chunks[k], r)
	t.n++
	t.last = r.Time
}

// Len returns the number of records.
func (t *Trail) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// ensureSortedLocked sorts the records once (stable, so equal
// timestamps keep append order) into one chunk and remembers that it
// did. Callers must hold t.mu.
func (t *Trail) ensureSortedLocked() {
	if !t.sorted {
		all := t.flatLocked()
		sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
		t.chunks = [][]Record{all}
		t.last, t.sorted = all[len(all)-1].Time, true
	}
}

// flatLocked returns a copy of all records in chunk order, nil when
// there are none.
func (t *Trail) flatLocked() []Record {
	if t.n == 0 {
		return nil
	}
	out := make([]Record, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Records returns a copy of all records in time order (stable for equal
// timestamps).
func (t *Trail) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureSortedLocked()
	return t.flatLocked()
}

// Filter returns the records of one kind, in time order. The filtering
// happens under the lock against the (once-)sorted records, so it
// copies only the matching records instead of the whole trail.
func (t *Trail) Filter(kind EventKind) []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureSortedLocked()
	var out []Record
	for _, c := range t.chunks {
		for _, r := range c {
			if r.Kind == kind {
				out = append(out, r)
			}
		}
	}
	return out
}

// WriteJSONLines streams the trail as one JSON object per line.
func (t *Trail) WriteJSONLines(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Records() {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("audit: encoding record: %w", err)
		}
	}
	return bw.Flush()
}

// ReadRecords reads a JSON-lines stream to its end and decodes it with
// DecodeRecords.
func ReadRecords(r io.Reader) ([]Record, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("audit: reading trail: %w", err)
	}
	recs, err := DecodeRecords(nil, body, 0)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	return recs, nil
}

// ErrTooManyRecords reports a body holding more records than the limit
// DecodeRecords was given.
var ErrTooManyRecords = errors.New("audit: too many records")

// DecodeRecords parses a JSON-lines body onto dst, in input order, so a
// caller can decode batch after batch into one recycled buffer. Lines
// empty after trimming whitespace (CRLF included) are skipped; a
// malformed line fails with its number and (truncated) content, a line
// of MaxLineBytes or more with its number. A limit above zero bounds the
// records appended: the record past it fails with ErrTooManyRecords
// before it is decoded. On error the result is dst extended by what was
// decoded before the failure, for the caller to clear and recycle.
//
// encoding/json defines what a line means and words every error; a line
// in the writers' shape is decoded by lineDecoder, in one pass and in
// its slot, and a body of splitBytes or more on up to GOMAXPROCS
// goroutines (decodeSplit). Neither changes anything in the result.
func DecodeRecords(dst []Record, body []byte, limit int) ([]Record, error) {
	n, procs := 1, runtime.GOMAXPROCS(0)
	if procs > 1 && len(body) >= splitBytes {
		n = piecesPerProc * procs
	}
	dst, ok := decodeSplit(dst, body, cutPieces(body, n), limit, procs)
	if ok {
		return dst, nil
	}
	return (&lineDecoder{names: make(map[string]string, 32)}).lines(dst, body, limit)
}

// lines is DecodeRecords on the calling goroutine.
func (d *lineDecoder) lines(dst []Record, body []byte, limit int) ([]Record, error) {
	start := len(dst)
	for line := 1; len(body) > 0; line++ {
		var b []byte
		b, body, _ = bytes.Cut(body, []byte{'\n'})
		// A line and its newline must fit in MaxLineBytes: the rule of
		// the bufio.Scanner the lines were read with, kept with its error.
		if len(b) >= MaxLineBytes {
			return dst, fmt.Errorf("audit: reading trail after line %d: %w", line-1, bufio.ErrTooLong)
		}
		if b = bytes.TrimSpace(b); len(b) == 0 {
			continue
		}
		if limit > 0 && len(dst)-start == limit {
			return dst, fmt.Errorf("audit: line %d: %w: more than %d", line, ErrTooManyRecords, limit)
		}
		// Doubling leaves at most the final buffer's size behind as
		// garbage; append's ×1.25 steps for large slices leave four times it.
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(len(dst), 64))
		}
		dst = append(dst, Record{})
		rec := &dst[len(dst)-1]
		if d.line(b, rec) {
			continue
		}
		*rec = Record{}
		if err := json.Unmarshal(b, rec); err != nil {
			return dst, fmt.Errorf("audit: line %d (%s): %w", line, truncateForError(b), err)
		}
	}
	return dst, nil
}

// ReadJSONLines parses a JSON-lines stream into a trail.
func ReadJSONLines(r io.Reader) (*Trail, error) {
	recs, err := ReadRecords(r)
	if err != nil {
		return nil, err
	}
	t := NewTrail()
	t.AppendBatch(recs)
	return t, nil
}

// truncateForError quotes a line's content for an error message, capped
// so a multi-megabyte line cannot balloon the error.
func truncateForError(b []byte) string {
	const max = 120
	if len(b) <= max {
		return fmt.Sprintf("%q", b)
	}
	return fmt.Sprintf("%q... (%d bytes)", b[:max], len(b))
}
