package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Float writes finite numbers itself; the bytes must stay encoding/json's.
func TestFloatMarshalMatchesEncodingJSON(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 100, 1234.5678,
		1e-6, 0.999e-6, 9.99e-7, 1e-7, 1e-9, 1e-10, 1.5e-10, -3e-9, 1e-100, 1.234e-100,
		1e20, 9.99e20, 1e21, 1.5e21, -1e21, 1e22, 1e100,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1 << 62, 1e15, 123456789012345680,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 5e-324 * 3, math.MaxFloat64, -math.MaxFloat64,
		math.Pi, 1 / 3.0, 5e-4, 0.0002783, 43200, 1.0 / 43200,
	} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Float(v).MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Float(%v).MarshalJSON() = %s, %v; encoding/json writes %s", v, got, err, want)
		}
	}
	for v, want := range map[float64]string{math.Inf(1): `"Infinity"`, math.Inf(-1): `"-Infinity"`} {
		if got, err := Float(v).MarshalJSON(); err != nil || string(got) != want {
			t.Errorf("Float(%v).MarshalJSON() = %s, %v; want %s", v, got, err, want)
		}
	}
	if got, err := Float(math.NaN()).MarshalJSON(); err != nil || string(got) != `"NaN"` {
		t.Errorf(`Float(NaN).MarshalJSON() = %s, %v; want "NaN"`, got, err)
	}
}

var elapsedMS = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// One assessment and one sensitivity table on the paper's system,
// byte for byte as the server replied before Float formatted its own
// numbers and before sensitivity worked on the separable form
// (testdata/*.golden.json were recorded at that commit; elapsed_ms, the
// one field that is a clock reading, is blanked on both sides).
func TestGoldenReplies(t *testing.T) {
	doc, _ := paperSystem(t)
	_, ts := newTestServer(t, Options{Workers: 2})
	var assess, table json.RawMessage
	req := AssessRequest{System: doc, Config: []int{2, 2, 3}, Goals: GoalsJSON{MaxWaiting: 0.5, MaxUnavailability: 1e-5}}
	if status := postJSON(t, ts.URL+"/v1/assess", req, &assess); status != http.StatusOK {
		t.Fatalf("assess status = %d", status)
	}
	var warm AssessResponse
	if err := json.Unmarshal(assess, &warm); err != nil {
		t.Fatal(err)
	}
	if status := getJSON(t, ts.URL+"/v1/sensitivity?fingerprint="+warm.Fingerprint+"&config=2,2,3", &table); status != http.StatusOK {
		t.Fatalf("sensitivity status = %d", status)
	}
	for name, got := range map[string][]byte{"assess": assess, "sensitivity": table} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		got = elapsedMS.ReplaceAll(got, []byte(`"elapsed_ms":0`))
		if !bytes.Equal(got, bytes.TrimSpace(want)) {
			t.Errorf("%s reply changed:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestUnencodableReplyIsTypedError pins that writeJSON encodes before it
// sends the status: a reply encoding/json refuses — or an appended reply
// with a non-finite plain float64 — becomes a 500 with a typed internal
// error body, not a success with an empty body or a partial reply.
func TestUnencodableReplyIsTypedError(t *testing.T) {
	s := New(Options{Logger: testLogger()})
	for i, body := range []any{
		struct{ X float64 }{math.Inf(1)},
		AssessResponse{Assessment: AssessmentJSON{Availability: math.NaN()}},
	} {
		rec := httptest.NewRecorder()
		s.writeJSON(rec, http.StatusOK, body)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Code != "internal" {
			t.Errorf("unencodable %T: %d %q (%v); want 500 with code internal", body, rec.Code, rec.Body, err)
		}
		if got := s.stats().Errors["internal"]; got != uint64(i+1) {
			t.Errorf("internal errors counted = %d, want %d", got, i+1)
		}
	}
}

// oldUnmarshalFloat is Float.UnmarshalJSON as it was before plain
// numbers were parsed where they stand: every number through a nested
// encoding/json decode.
func oldUnmarshalFloat(f *Float, b []byte) error {
	switch string(b) {
	case `"Infinity"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Infinity"`:
		*f = Float(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// FuzzFloatUnmarshalMatchesOld pins Float.UnmarshalJSON to the nested
// decode it replaces: the same bits and the same error text on every
// input (null, which left a zero Float zero, included).
func FuzzFloatUnmarshalMatchesOld(f *testing.F) {
	for _, seed := range []string{"0", "-0", "1", "-1.5e-7", "1e21", "1e400", "-1e400", "4.9e-324", "2e-400",
		"00", "01", "1.", ".5", "+1", "1e", "1e+", " 1", "1 ", `"1"`, `"Infinity"`, `"-Infinity"`, `"NaN"`, "null",
		"true", "Infinity", "NaN", "0x10", "1_0", "", "123456789012345678901234567890", "1E5", "-", "--1"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var got, want Float
		errGot, errWant := got.UnmarshalJSON(b), oldUnmarshalFloat(&want, b)
		if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
			t.Fatalf("UnmarshalJSON(%q): error %v, was %v", b, errGot, errWant)
		}
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("UnmarshalJSON(%q) = %v, was %v", b, got, want)
		}
	})
}

// null leaves a Float as it was, as encoding/json leaves a float64.
func TestFloatUnmarshalNullIsNoOp(t *testing.T) {
	f := Float(2.5)
	if err := f.UnmarshalJSON([]byte("null")); err != nil || f != 2.5 {
		t.Errorf("UnmarshalJSON(null) on 2.5: %v, %v; want 2.5 unchanged", f, err)
	}
}
