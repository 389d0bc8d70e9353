package audit

import (
	"bytes"
	"strconv"
	"sync"
	"sync/atomic"

	"performa/internal/jsonscan"
)

// DecodeRecords splits a body of splitBytes or more (a 2,000-record
// trail batch is ~240 KB) into piecesPerProc pieces per goroutine: a
// helper starts 90–560 µs (median ~450) after its launch when served,
// and the caller decodes the pieces a late helper would have had.
const splitBytes, piecesPerProc = 128 << 10, 8

// cutPieces returns where n pieces of about equal size end in body, each
// just after a newline but the last, which ends the body.
func cutPieces(body []byte, n int) []int {
	ends := make([]int, 0, n)
	for at := 0; at < len(body); ends = append(ends, at) {
		step := (len(body) - at) / (n - len(ends))
		if i := bytes.IndexByte(body[at+step:], '\n'); i >= 0 && len(ends) < n-1 {
			at += step + i + 1
		} else {
			at = len(body)
		}
	}
	return ends
}

// decodeSplit reserves a slot of dst per line of body, up to limit if it
// is above zero, but none past one per 32 bytes (rounded up), so blank
// lines reserve at most 4.25 times their bytes. If every line has one, it
// decodes the pieces ending at ends into their slots on procs goroutines
// and closes the gaps blank lines left. Else, or if a piece fails (what
// the pieces wrote is then cleared), it reports false for the caller to
// decode body on one goroutine, which words every error.
func decodeSplit(dst []Record, body []byte, ends []int, limit, procs int) ([]Record, bool) {
	type piece struct {
		body  []byte
		lines int
		recs  []Record
		err   error
	}
	pieces := make([]piece, len(ends))
	lines, from := 0, 0
	for k, to := range ends {
		p := &pieces[k]
		p.body, from = body[from:to], to
		if p.lines = bytes.Count(p.body, []byte{'\n'}); body[to-1] != '\n' {
			p.lines++
		}
		lines += p.lines
	}
	slots := lines
	if limit > 0 {
		slots = min(lines, limit)
	}
	if slots > (len(body)+31)/32 {
		return dst, false
	}
	start := len(dst)
	if cap(dst)-start < slots {
		dst = append(make([]Record, 0, start+slots), dst...)
	}
	if len(pieces) < 2 || slots < lines {
		return dst, false
	}
	all := dst[:start+lines]
	for k, at := 0, start; k < len(pieces); k++ {
		pieces[k].recs, at = all[at:at:at+pieces[k].lines], at+pieces[k].lines
	}
	var next atomic.Int64
	decode := func() {
		d := &lineDecoder{names: make(map[string]string, 32)}
		for k := next.Add(1) - 1; k < int64(len(pieces)); k = next.Add(1) - 1 {
			pieces[k].recs, pieces[k].err = d.lines(pieces[k].recs, pieces[k].body, 0)
		}
	}
	var wg sync.WaitGroup
	wg.Add(procs - 1)
	for range procs - 1 {
		go func() { defer wg.Done(); decode() }()
	}
	decode()
	wg.Wait()
	n := start
	for _, p := range pieces {
		if p.err != nil {
			clear(all[start:])
			return dst, false
		}
		if len(p.recs) > 0 && &p.recs[0] != &all[n] {
			copy(all[n:], p.recs)
		}
		n += len(p.recs)
	}
	clear(all[n:])
	return all[:n], true
}

// fieldKeys are Record's JSON keys, each with its colon, in declaration
// order: the order json.Encoder writes them in, and the field numbers of
// key, line and setNumber.
var fieldKeys = [...]string{`"kind":`, `"time":`, `"workflow":`, `"instance":`,
	`"chart":`, `"state":`, `"activity":`, `"server_type":`, `"server":`,
	`"waiting":`, `"service":`}

// key returns the number of the field whose key and colon start r, with
// a byte after them, or -1. It tests the byte after the quote and then
// compares against a constant, which the compiler inlines (a compare
// against fieldKeys[f] would call memequal).
func key(r []byte) int {
	switch n := len(r); {
	case n < 8:
		return -1
	case r[1] == 'k' && string(r[:7]) == `"kind":`:
		return 0
	case r[1] == 't' && string(r[:7]) == `"time":`:
		return 1
	case r[1] == 'w' && n > 11 && string(r[:11]) == `"workflow":`:
		return 2
	case r[1] == 'i' && n > 11 && string(r[:11]) == `"instance":`:
		return 3
	case r[1] == 'c' && n > 8 && string(r[:8]) == `"chart":`:
		return 4
	case r[1] == 's' && n > 8 && string(r[:8]) == `"state":`:
		return 5
	case r[1] == 'a' && n > 11 && string(r[:11]) == `"activity":`:
		return 6
	case r[1] == 's' && n > 14 && string(r[:14]) == `"server_type":`:
		return 7
	case r[1] == 's' && n > 9 && string(r[:9]) == `"server":`:
		return 8
	case r[1] == 'w' && n > 10 && string(r[:10]) == `"waiting":`:
		return 9
	case r[1] == 's' && n > 10 && string(r[:10]) == `"service":`:
		return 10
	}
	return -1
}

// lineDecoder decodes the line json.Encoder.Encode(Record) writes: a
// flat object of Record's JSON keys, strings with no escape and valid
// UTF-8, and strict JSON numbers that convert to the field's type as
// encoding/json converts them. Keys may come in any order. Strings are
// interned, first against the field's last, so none aliases the body; a
// decoder lives for one body, which bounds what names holds.
type lineDecoder struct {
	names map[string]string
	last  [len(fieldKeys)]string
}

// line decodes b, one line with surrounding whitespace trimmed, into rec
// and reports whether the line was the writers' shape. It never reports
// an error and never guesses: on false the caller decodes the line with
// encoding/json from a zero Record, which stays the definition of what a
// line means; rec may be partly written.
func (d *lineDecoder) line(b []byte, rec *Record) bool {
	if len(b) < 2 || b[0] != '{' {
		return false
	}
	i := jsonscan.SkipSpace(b, 1)
	if i < len(b) && b[i] == '}' {
		return i+1 == len(b)
	}
	strs := [len(fieldKeys)]*string{(*string)(&rec.Kind), nil, &rec.Workflow, nil,
		&rec.Chart, &rec.State, &rec.Activity, &rec.ServerType} // the rest are numbers
	for {
		f := key(b[i:])
		if f < 0 {
			return false
		}
		i = jsonscan.SkipSpace(b, i+len(fieldKeys[f]))
		ok := false
		if s := strs[f]; s == nil {
			i, ok = setNumber(rec, f, b, i)
		} else if val, end, plain := jsonscan.PlainString(b, i); plain {
			if string(val) != d.last[f] {
				if d.last[f] = d.names[string(val)]; d.last[f] == "" {
					d.last[f] = string(val)
					d.names[d.last[f]] = d.last[f]
				}
			}
			*s, i, ok = d.last[f], end, true
		}
		if !ok {
			return false
		}
		switch i = jsonscan.SkipSpace(b, i); {
		case i < len(b) && b[i] == ',':
			i = jsonscan.SkipSpace(b, i+1)
		case i+1 == len(b) && b[i] == '}':
			return true
		default:
			return false
		}
	}
}

// setNumber scans the number literal at b[i] into rec's field fieldKeys[f]
// as the strconv call encoding/json makes for its type converts it, and
// reports where the literal ends and whether it converted. A literal the
// conversion refuses ("1e3" or "-1" for an integer) is the fallback's.
func setNumber(rec *Record, f int, b []byte, i int) (int, bool) {
	end, num := jsonscan.Number(b, i)
	if end < 0 {
		return 0, false
	}
	var err error
	switch lit := b[i:end]; f {
	case 1:
		rec.Time, err = num.Float(lit)
	case 3:
		rec.Instance, err = strconv.ParseUint(string(lit), 10, 64)
	case 8:
		rec.Server, err = strconv.Atoi(string(lit))
	case 9:
		rec.Waiting, err = num.Float(lit)
	default:
		rec.Service, err = num.Float(lit)
	}
	return end, err == nil
}
