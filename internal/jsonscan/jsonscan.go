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

// NumberEnd returns the index after the JSON number literal starting at
// b[i] — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if there
// is none. What follows the literal is the caller's to check.
func NumberEnd(b []byte, i int) int {
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

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
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
