package jsonscan

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Writer appends JSON in json.Marshal's format without reflection, for
// the writers whose bytes are pinned against json.Marshal's: wfjson's
// canonical document and the server's hot replies. Each value method
// appends a prefix (the comma, key and colon before a member, or nothing)
// and then the value, and returns w, so members chain in their order.
// Err is the first value json.Marshal would have refused; Buf is not
// usable once it is set.
type Writer struct {
	Buf []byte
	Err error
}

// Lit appends s as it is.
func (w *Writer) Lit(s string) *Writer {
	w.Buf = append(w.Buf, s...)
	return w
}

// Str appends prefix and s quoted as json.Marshal quotes it.
func (w *Writer) Str(prefix, s string) *Writer {
	w.Buf = AppendString(append(w.Buf, prefix...), s)
	return w
}

// StrOmitEmpty is Str for an omitempty member: nothing when s is empty.
func (w *Writer) StrOmitEmpty(prefix, s string) *Writer {
	if s == "" {
		return w
	}
	return w.Str(prefix, s)
}

// Float appends prefix and f in encoding/json's float64 format, or sets
// json.Marshal's error for the non-finite values it refuses.
func (w *Writer) Float(prefix string, f float64) *Writer {
	w.Lit(prefix)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.Err == nil {
			w.Err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return w
	}
	w.Buf = AppendFloat(w.Buf, f)
	return w
}

// FloatOmitEmpty is Float for an omitempty member: nothing when f is
// either zero.
func (w *Writer) FloatOmitEmpty(prefix string, f float64) *Writer {
	if f == 0 {
		return w
	}
	return w.Float(prefix, f)
}

// FloatOrQuoted is Float with the non-finite values written as the
// strings "Infinity", "-Infinity" and "NaN" instead of refused.
func (w *Writer) FloatOrQuoted(prefix string, f float64) *Writer {
	switch {
	case math.IsInf(f, 1):
		return w.Str(prefix, "Infinity")
	case math.IsInf(f, -1):
		return w.Str(prefix, "-Infinity")
	case math.IsNaN(f):
		return w.Str(prefix, "NaN")
	}
	return w.Float(prefix, f)
}

// Int appends prefix and n.
func (w *Writer) Int(prefix string, n int64) *Writer {
	w.Buf = strconv.AppendInt(append(w.Buf, prefix...), n, 10)
	return w
}

// Uint appends prefix and n.
func (w *Writer) Uint(prefix string, n uint64) *Writer {
	w.Buf = strconv.AppendUint(append(w.Buf, prefix...), n, 10)
	return w
}

// Bool appends prefix and b.
func (w *Writer) Bool(prefix string, b bool) *Writer {
	w.Buf = strconv.AppendBool(append(w.Buf, prefix...), b)
	return w
}

// Ints appends prefix and s as json.Marshal writes an []int.
func (w *Writer) Ints(prefix string, s []int) *Writer {
	AppendArray(w.Lit(prefix), s, func(w *Writer, n *int) { w.Int("", int64(*n)) })
	return w
}

// Strs appends prefix and s as json.Marshal writes a []string.
func (w *Writer) Strs(prefix string, s []string) *Writer {
	AppendArray(w.Lit(prefix), s, func(w *Writer, v *string) { w.Str("", *v) })
	return w
}

// AppendArray appends s as json.Marshal writes a slice: null for nil,
// else the elements, each by elem, in brackets.
func AppendArray[W interface{ Lit(string) *Writer }, T any](w W, s []T, elem func(W, *T)) {
	if s == nil {
		w.Lit(`null`)
		return
	}
	w.Lit(`[`)
	for i := range s {
		if i > 0 {
			w.Lit(`,`)
		}
		elem(w, &s[i])
	}
	w.Lit(`]`)
}

// plainASCII marks the ASCII bytes AppendString copies as they are.
var plainASCII = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s quoted as json.Marshal quotes a string: HTML-safe
// escapes for <, > and &, short escapes for \b \f \n \r \t " and \\,
// \u00XX for the other control characters, U+FFFD for each byte of
// invalid UTF-8, and U+2028 and U+2029 escaped.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainASCII[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if j := strings.IndexByte("\"\\\b\f\n\r\t", c); j >= 0 {
				dst = append(dst, '\\', `"\bfnrt`[j])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			if size == 1 {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			}
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}
