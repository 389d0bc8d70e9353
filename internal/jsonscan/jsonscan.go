// Package jsonscan holds the byte-level scanning steps the repository's
// one-pass decoders (audit lines, wfjson documents) share. Each step
// recognises the plain form of one JSON token — the form whose decoding
// is its own bytes — and reports anything else as not recognised, so the
// caller can hand the input to encoding/json, which stays the definition
// of what the input means. Writer (with AppendString and AppendFloat) is
// the other direction: the one JSON writer of the repository's outputs
// whose bytes must be json.Marshal's.
package jsonscan

import (
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// SkipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// PlainString scans a JSON string starting at b[i] whose content is its
// own decoding: no escape, no control character, valid UTF-8. It returns
// the content and the index after the closing quote.
func PlainString(b []byte, i int) (val []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	j, high := i+1, uint8(0)
	for ; j < len(b) && stringBytes[b[j]] != 0; j++ {
		high |= stringBytes[b[j]]
	}
	if j == len(b) || b[j] != '"' {
		return nil, 0, false
	}
	val = b[i+1 : j]
	return val, j + 1, high < 2 || utf8.Valid(val)
}

// stringBytes is 0 for the bytes a plain string cannot hold (a quote, a
// backslash, a control character), 2 for those of a multi-byte rune,
// which alone send the content to the UTF-8 check, and 1 for the rest.
var stringBytes = func() (t [256]uint8) {
	for c := ' '; c < 256; c++ {
		t[c] = 1 + uint8(c>>7)
	}
	t['"'], t['\\'] = 0, 0
	return t
}()

// Decimal is a JSON number literal as Number scans it: ±mant·10^exp,
// unless trunc says mant or exp could not hold every digit.
type Decimal struct {
	mant       uint64
	exp        int
	neg, trunc bool
}

// Number scans the JSON number literal at b[i] in one pass, checking its
// grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and collecting
// its digits. It returns the index after the literal, or -1 if there is
// none, and its value; what follows the literal is the caller's to check.
func Number(b []byte, i int) (end int, d Decimal) {
	if i < len(b) && b[i] == '-' {
		d.neg, i = true, i+1
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = d.digits(b, i, 0)
	default:
		return -1, d
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i]-'0' > 9 {
			return -1, d
		}
		i = d.digits(b, i, -1)
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		sign := 1
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			sign, i = 44-int(b[i]), i+1 // '+' is 43, '-' 45
		}
		e, j := 0, i
		for ; j < len(b) && b[j]-'0' <= 9; j++ {
			e = min(e*10+int(b[j]-'0'), 1e5)
		}
		if j == i {
			return -1, d
		}
		i, d.exp, d.trunc = j, d.exp+sign*e, d.trunc || e == 1e5
	}
	return i, d
}

// digits adds the digits at b[i] to d.mant, moving d.exp by step for
// each, and returns the index after them.
func (d *Decimal) digits(b []byte, i, step int) int {
	m, j := d.mant, i
	for ; j < len(b) && b[j]-'0' <= 9 && m <= (math.MaxUint64-9)/10; j++ {
		m = m*10 + uint64(b[j]-'0')
	}
	d.mant, d.exp = m, d.exp+step*(j-i)
	for ; j < len(b) && b[j]-'0' <= 9; j++ {
		d.trunc = true
	}
	return j
}

// Float returns what strconv.ParseFloat returns for lit, the literal d
// was scanned from, without parsing lit again where the nearest float64
// (ties to even) is cheap to get exactly. Powers of ten (and five) up to
// 10^22 are exact float64s: one multiply rounds a mantissa below 2^53
// times one, and m over 10^k is m·2^s/5^k over 2^(s+k), an integer
// division whose 63- or 64-bit quotient float64 rounds once when a
// nonzero remainder sets its lowest bit.
func (d Decimal) Float(lit []byte) (float64, error) {
	var f float64
	switch {
	case d.trunc || d.exp > 22 || d.exp < -22 || d.mant >= 1<<53 && d.exp > 0:
		return strconv.ParseFloat(string(lit), 64)
	case d.exp >= 0 || d.mant == 0:
		f = float64(d.mant) * math.Pow10(max(d.exp, 0))
	default:
		k, lm := -d.exp, bits.Len64(d.mant)
		p := uint64(math.Ldexp(math.Pow10(k), -k)) // 5^k
		ld, m := bits.Len64(p), d.mant<<(64-lm)
		q, r := bits.Div64(m>>(65-ld), m<<(ld-1), p)
		if r != 0 {
			q |= 1 // at least 10 bits below the rounding bit
		}
		f = math.Ldexp(float64(q), lm-ld-k-63)
	}
	if d.neg {
		f = -f
	}
	return f, nil
}

// ObjectEnd returns the index after the JSON object starting at b[i] —
// after the brace that closes it, counting braces and brackets outside
// strings, in which a backslash escapes the byte after it — or -1 if
// there is none. It checks nothing but that nesting: whether the bytes
// between are JSON is the caller's to find out.
func ObjectEnd(b []byte, i int) int {
	if i >= len(b) || b[i] != '{' {
		return -1
	}
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return -1
}

// AppendFloat appends a finite f in encoding/json's float64 format: ES6
// number-to-string — exponent form below 1e-6 and from 1e21, a one-digit
// negative exponent not padded to two. Infinities and NaN, which
// encoding/json refuses, are the caller's to handle first.
func AppendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if n := int64(f); abs < 1<<53 && float64(n) == f && (n != 0 || !math.Signbit(f)) {
		// A whole number in 'f' format is the integer's digits.
		return strconv.AppendInt(dst, n, 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
