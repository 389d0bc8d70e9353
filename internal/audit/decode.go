package audit

import (
	"strconv"

	"performa/internal/jsonscan"
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
	i := jsonscan.SkipSpace(b, 1)
	if i < len(b) && b[i] == '}' {
		return i+1 == len(b)
	}
	for {
		key, next, ok := jsonscan.PlainString(b, i)
		if !ok {
			return false
		}
		if i = jsonscan.SkipSpace(b, next); i >= len(b) || b[i] != ':' {
			return false
		}
		i = jsonscan.SkipSpace(b, i+1)

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
			if val, next, ok = jsonscan.PlainString(b, i); !ok {
				return false
			}
			if str == (*string)(&rec.Kind) {
				rec.Kind = kindOf(names, val)
			} else {
				*str = intern(names, val)
			}
			i = next
		} else {
			end := jsonscan.NumberEnd(b, i)
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

		if i = jsonscan.SkipSpace(b, i); i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = jsonscan.SkipSpace(b, i+1)
		case '}':
			return i+1 == len(b)
		default:
			return false
		}
	}
}

// kinds are the record kinds the writers emit, the most frequent first.
var kinds = [...]EventKind{
	ServiceRequest, StateEntered, StateLeft, ActivityStarted, ActivityCompleted,
	InstanceStarted, InstanceCompleted,
}

// kindOf returns b as a record kind: one of the constants when it spells
// one, so the common line costs no map lookup, and interned otherwise.
func kindOf(names map[string]string, b []byte) EventKind {
	for _, k := range kinds {
		if string(b) == string(k) {
			return k
		}
	}
	return EventKind(intern(names, b))
}

// intern returns the canonical copy of b's content, making one on first
// sight. The table lives for one AppendRecords call, so outside input can
// grow it only by the size of the body it sent.
func intern(names map[string]string, b []byte) string {
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	names[s] = s
	return s
}
