package jsonscan

import (
	"encoding/json"
	"math/rand"
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
		if end := NumberEnd([]byte(tc.in), 0); end != tc.end {
			t.Errorf("NumberEnd(%q) = %d, want %d", tc.in, end, tc.end)
		}
	}
	if end := NumberEnd([]byte(`{"a":-1.5}`), 5); end != 9 {
		t.Errorf("NumberEnd mid-input = %d, want 9", end)
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
