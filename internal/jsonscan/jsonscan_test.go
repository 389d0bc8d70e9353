package jsonscan

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestPlainString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		at   int
		want string
		end  int
		ok   bool
	}{
		{`"abc"`, 0, "abc", 5, true},
		{`x"abc"y`, 1, "abc", 6, true},
		{`""`, 0, "", 2, true},
		{"\"Prüfung ✓\"", 0, "Prüfung ✓", 14, true},
		{`"a\"b"`, 0, "", 0, false},
		{`"a\u0041"`, 0, "", 0, false},
		{"\"a\tb\"", 0, "", 0, false},
		{"\"a\x00b\"", 0, "", 0, false},
		{"\"a\xffb\"", 0, "", 0, false},
		{"\"\xed\xa0\x80\"", 0, "", 0, false},
		{`"abc`, 0, "", 0, false},
		{`abc"`, 0, "", 0, false},
		{`"abc"`, 5, "", 0, false},
		{``, 0, "", 0, false},
	} {
		val, end, ok := PlainString([]byte(tc.in), tc.at)
		if ok != tc.ok || (ok && (string(val) != tc.want || end != tc.end)) {
			t.Errorf("PlainString(%q, %d) = %q, %d, %v; want %q, %d, %v", tc.in, tc.at, val, end, ok, tc.want, tc.end, tc.ok)
		}
	}
}

func TestNumberEnd(t *testing.T) {
	for _, tc := range []struct {
		in  string
		end int
	}{
		{"0", 1}, {"-0", 2}, {"7", 1}, {"120", 3}, {"-12", 3},
		{"0.5", 3}, {"1.25e10", 7}, {"1E+2", 4}, {"1e-2", 4}, {"-0.0e-0", 7},
		{"12,", 2}, {"12}", 2}, {"1.5abc", 3},
		// A leading zero ends the literal: what follows is the caller's.
		{"01", 1}, {"007", 1},
		{"", -1}, {"-", -1}, {"+1", -1}, {".5", -1}, {"1.", -1}, {"1.e2", -1},
		{"1e", -1}, {"1e+", -1}, {"e1", -1}, {"NaN", -1}, {"Infinity", -1}, {"x", -1},
	} {
		if end, _ := Number([]byte(tc.in), 0); end != tc.end {
			t.Errorf("Number(%q) ends at %d, want %d", tc.in, end, tc.end)
		}
	}
	if end, _ := Number([]byte(`{"a":-1.5}`), 5); end != 9 {
		t.Errorf("Number mid-input ends at %d, want 9", end)
	}
}

// TestNumberFloatMatchesParseFloat pins Number and Decimal.Float to
// strconv.ParseFloat, the conversion encoding/json makes: the same
// float64 to the bit and the same error. The literals are random
// mantissas of 1 to 21 digits written with exponents that reach the
// exact paths and pass them, their boundaries (2^53 ± 1, 10^±22 and
// 10^±23, 19 and 20 digits), ties, and exponents of 100,000 or more,
// which Number caps, beside fractions whose leading zeros would bring
// them back in range.
func TestNumberFloatMatchesParseFloat(t *testing.T) {
	exact := 0
	check := func(lit string) {
		t.Helper()
		end, d := Number([]byte(lit), 0)
		if end != len(lit) {
			t.Fatalf("%q: Number ends at %d of %d", lit, end, len(lit))
		}
		if !d.trunc && d.exp >= -22 && d.exp <= 22 && (d.mant < 1<<53 || d.exp <= 0) {
			exact++
		}
		got, err := d.Float([]byte(lit))
		want, wantErr := strconv.ParseFloat(lit, 64)
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: Float = %v (%#x), %v; ParseFloat = %v (%#x), %v",
				lit, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	}
	for _, lit := range []string{"0", "-0", "-0.0", "0e0", "0.000", "1", "-1", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995", "900719925474099.3",
		"0.0000000000000000000000001", "0.00000000000000000000000001", "1234567890123456789", "12345678901234567890",
		"0.10000000000000000555", "2.2250738585072014e-308", "1.7976931348623157e308", "4.9e-324", "1e400",
		"0.3", "0.1", "123.456", "5e-324", "1E+2", "3.25e-7", "0.0022122168777336474", "0.00021521181465057804",
		"1e99999", "1e100000", "1e-100000", "1e200000", "0." + strings.Repeat("0", 99990) + "1e99991",
		"0." + strings.Repeat("0", 100010) + "1e100005", "0." + strings.Repeat("0", 100010) + "1e200000"} {
		check(lit)
	}
	rng := rand.New(rand.NewSource(1))
	for range 200000 {
		digits := make([]byte, 1+rng.Intn(21))
		for i := range digits {
			digits[i] = byte('0' + rng.Intn(10))
		}
		if digits[0] == '0' {
			digits[0] = '1'
		}
		lit := string(digits)
		switch cut := rng.Intn(len(digits) + 1); {
		case cut == 0:
			lit = "0." + strings.Repeat("0", rng.Intn(12)) + lit
		case cut < len(digits):
			lit = lit[:cut] + "." + lit[cut:]
		}
		if rng.Intn(3) == 0 {
			lit += "e" + strconv.Itoa(rng.Intn(70)-40)
		}
		if rng.Intn(2) == 0 {
			lit = "-" + lit
		}
		check(lit)
	}
	// Ties: an odd 54-bit mantissa over 2^j lies halfway between two
	// float64s; written as m·5^j over 10^j it takes the integer division.
	for range 20000 {
		m := uint64(1)<<53 | rng.Uint64()>>11 | 1
		for j, p := 0, uint64(1); j <= 4; j, p = j+1, p*5 {
			for _, n := range []uint64{m*p - 1, m * p, m*p + 1} {
				s := strconv.FormatUint(n, 10)
				check(s[:len(s)-j] + "." + s[len(s)-j:] + "0")
			}
		}
	}
	// Every 5^k of the division's table and every exact 10^k, at the
	// mantissa extremes (1, 2^53 ± 1, the largest 19 digits): where the
	// quotient's shift and the power-of-two scale are longest and
	// shortest. Each is written with an exponent and as a fraction.
	for k := 1; k <= 22; k++ {
		for _, m := range []uint64{1, 1<<53 - 1, 1<<53 + 1, 9999999999999999999} {
			s := strconv.FormatUint(m, 10)
			frac := "0." + strings.Repeat("0", max(k-len(s), 0)) + s
			if k < len(s) {
				frac = s[:len(s)-k] + "." + s[len(s)-k:]
			}
			for _, lit := range []string{s + "e-" + strconv.Itoa(k), s + "e" + strconv.Itoa(k), frac} {
				check(lit)
				check("-" + lit)
			}
		}
	}
	if exact < 100000 {
		t.Errorf("%d of the literals reach the exact paths, want most", exact)
	}
}

func TestSkipSpace(t *testing.T) {
	for _, tc := range []struct {
		in       string
		at, want int
	}{
		{" \t\r\nx", 0, 4}, {"x", 0, 0}, {"  ", 0, 2}, {"", 0, 0}, {"a  b", 1, 3},
		// Vertical tab, form feed and NBSP are not JSON whitespace.
		{"\vx", 0, 0}, {"\fx", 0, 0}, {"\u00a0x", 0, 0},
	} {
		if got := SkipSpace([]byte(tc.in), tc.at); got != tc.want {
			t.Errorf("SkipSpace(%q, %d) = %d, want %d", tc.in, tc.at, got, tc.want)
		}
	}
}

func TestObjectEnd(t *testing.T) {
	for _, tc := range []struct {
		in       string
		at, want int
	}{
		{`{}`, 0, 2}, {`{"a":1},`, 0, 7}, {`x{"a":[1,{}]}y`, 1, 13},
		// Brackets in strings do not count; a backslash escapes a quote.
		{`{"}":"]"}`, 0, 9}, {`{"a\"}":1}`, 0, 10}, {`{"a\\":"}"}`, 0, 11},
		// Only the nesting is checked.
		{`{]`, 0, 2}, {`{x y z}`, 0, 7},
		{``, 0, -1}, {`[]`, 0, -1}, {`{`, 0, -1}, {`{"}`, 0, -1}, {`{"a\"}`, 0, -1}, {`{[}`, 0, -1},
		{`{}`, 2, -1},
	} {
		if got := ObjectEnd([]byte(tc.in), tc.at); got != tc.want {
			t.Errorf("ObjectEnd(%q, %d) = %d, want %d", tc.in, tc.at, got, tc.want)
		}
	}
}

// TestAppendStringMatchesMarshal pins AppendString to json.Marshal of a
// string: every single byte, every pair of the bytes that escape
// differently, the separators U+2028/U+2029, truncated and overlong
// UTF-8, and random byte strings.
func TestAppendStringMatchesMarshal(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got[1:]) != string(want) || got[0] != 'x' {
			t.Errorf("AppendString(%q) = %s, json.Marshal writes %s", s, got[1:], want)
		}
	}
	for c := 0; c < 256; c++ {
		check(string([]byte{byte(c)}))
		check("a" + string([]byte{byte(c)}) + "b")
	}
	specials := []string{"\"", "\\", "<", ">", "&", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029",
		"\ufffd", "\xff", "\xe2\x80", "\xed\xa0\x80", "\xc0\xaf", "é", "日", "\U0001F600", "plain"}
	for _, a := range specials {
		for _, b := range specials {
			check(a + b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		check(string(b))
	}
}
