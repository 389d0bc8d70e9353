package audit

import (
	"strconv"
	"unicode/utf8"
)

// decodeLine is the one-pass decoder for the line every producer in the
// repository emits, json.Encoder.Encode(Record): a flat object whose
// keys are Record's JSON names spelled exactly, whose strings carry no
// escape and are valid UTF-8, and whose numbers are strict JSON literals
// that strconv parses into the field's type without error. It reports
// whether the line was that shape. It never reports an error and never
// guesses: on false the caller decodes the line with encoding/json from
// a zero Record, which stays the definition of what a line means. b is
// one line with surrounding whitespace trimmed; rec may be partly
// written when the answer is false. Strings are interned in names, so no
// returned string aliases b.
func decodeLine(b []byte, rec *Record, names map[string]string) bool {
	if len(b) == 0 || b[0] != '{' {
		return false
	}
	i := skipSpace(b, 1)
	if i < len(b) && b[i] == '}' {
		return i+1 == len(b)
	}
	for {
		key, next, ok := plainString(b, i)
		if !ok {
			return false
		}
		if i = skipSpace(b, next); i >= len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)

		var (
			str *string
			flt *float64
			uns *uint64
			num *int
		)
		switch string(key) {
		case "kind":
			str = (*string)(&rec.Kind)
		case "workflow":
			str = &rec.Workflow
		case "chart":
			str = &rec.Chart
		case "state":
			str = &rec.State
		case "activity":
			str = &rec.Activity
		case "server_type":
			str = &rec.ServerType
		case "time":
			flt = &rec.Time
		case "waiting":
			flt = &rec.Waiting
		case "service":
			flt = &rec.Service
		case "instance":
			uns = &rec.Instance
		case "server":
			num = &rec.Server
		default:
			return false
		}
		if str != nil {
			var val []byte
			if val, next, ok = plainString(b, i); !ok {
				return false
			}
			*str, i = intern(names, val), next
		} else {
			end := numberEnd(b, i)
			if end < 0 {
				return false
			}
			// The conversions encoding/json makes for these field types; a
			// literal they refuse ("1e3" or "-1" for instance, "1e999" for
			// a float) is the fallback's to report.
			lit := string(b[i:end])
			var err error
			switch {
			case flt != nil:
				*flt, err = strconv.ParseFloat(lit, 64)
			case uns != nil:
				*uns, err = strconv.ParseUint(lit, 10, 64)
			default:
				*num, err = strconv.Atoi(lit)
			}
			if err != nil {
				return false
			}
			i = end
		}

		if i = skipSpace(b, i); i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i+1 == len(b)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// plainString scans a JSON string starting at b[i] whose content is its
// own decoding: no escape, no control character, valid UTF-8. It returns
// the content and the index after the closing quote.
func plainString(b []byte, i int) (val []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	i++
	ascii := true
	for j := i; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			val = b[i:j]
			return val, j + 1, ascii || utf8.Valid(val)
		case c == '\\' || c < ' ':
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// numberEnd returns the index after the JSON number literal starting at
// b[i] — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if there
// is none. What follows the literal is the caller's to check.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		frac := skipDigits(b, i+1)
		if frac == i+1 {
			return -1
		}
		i = frac
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := skipDigits(b, i)
		if exp == i {
			return -1
		}
		i = exp
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// intern returns the canonical copy of b's content, making one on first
// sight. The table lives for one ReadRecords call, so outside input can
// grow it only by the size of the body it sent.
func intern(names map[string]string, b []byte) string {
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	names[s] = s
	return s
}
