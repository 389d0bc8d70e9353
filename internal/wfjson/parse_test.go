package wfjson

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// referenceDocument is the decode Decode made before the one-pass parser
// existed: one document through a strict json.Decoder. It is the oracle —
// encoding/json defines what a document means. end is the offset after
// the document.
func referenceDocument(in []byte) (doc Document, end int64, err error) {
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.DisallowUnknownFields()
	err = dec.Decode(&doc)
	return doc, dec.InputOffset(), err
}

// requireMatchesEncodingJSON fails unless the parser and encoding/json
// agree on in: whatever the parser accepts is the document encoding/json
// decodes (floats to the bit: json.Marshal writes -0 and 0 differently)
// and ends where encoding/json's ends, and Decode — parser, refusal and
// fallback together — answers as FromDocument does on the reference
// document, or with the reference's parse error word for word. (What
// FromDocument says of an invalid document is not compared: with two
// faults in one map, which it names depends on map order.)
func requireMatchesEncodingJSON(t *testing.T, in []byte) (accepted bool) {
	t.Helper()
	var got Document
	end, ok := ParseDocument(in, &got)
	requireCertifiedDigest(t, in)
	if ok {
		want, wantEnd, err := referenceDocument(in)
		if err != nil {
			t.Fatalf("parser accepted what encoding/json rejects: %v\ninput: %q", err, in)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("documents diverged\n got: %+v\nwant: %+v\ninput: %q", got, want, in)
		}
		if int64(end) != wantEnd {
			t.Fatalf("document ends at %d, encoding/json's at %d\ninput: %q", end, wantEnd, in)
		}
		gotJSON, gotErr := json.Marshal(&got)
		wantJSON, wantErr := json.Marshal(&want)
		if gotErr != nil || wantErr != nil || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("documents re-marshal differently\n got: %s (%v)\nwant: %s (%v)", gotJSON, gotErr, wantJSON, wantErr)
		}
	}

	env, flows, err := Decode(bytes.NewReader(in))
	want, _, parseErr := referenceDocument(in)
	if parseErr != nil {
		if wantText := "wfjson: parsing document: " + parseErr.Error(); err == nil || err.Error() != wantText {
			t.Fatalf("Decode error diverged\n got: %v\nwant: %s\ninput: %q", err, wantText, in)
		}
		return ok
	}
	wantEnv, wantFlows, wantErr := FromDocument(&want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Decode error diverged\n got: %v\nwant: %v\ninput: %q", err, wantErr, in)
	}
	if err == nil && (!reflect.DeepEqual(env, wantEnv) || !reflect.DeepEqual(flows, wantFlows)) {
		t.Fatalf("Decode result diverged\ninput: %q", in)
	}
	return ok
}

// nested returns a valid document whose subcharts nest depth charts deep.
func nested(depth int) string {
	chart := `{"name":"c0","initial":"i","final":"f","states":[{"name":"i"},{"name":"a","activity":"A"},{"name":"f"}],` +
		`"transitions":[{"from":"i","to":"a","prob":1},{"from":"a","to":"f","prob":1}]}`
	for d := 1; d < depth; d++ {
		chart = fmt.Sprintf(`{"name":"c%d","initial":"i","final":"f","states":[{"name":"i"},{"name":"s","subcharts":[%s]},{"name":"f"}],`+
			`"transitions":[{"from":"i","to":"s","prob":1},{"from":"s","to":"f","prob":1}]}`, d, chart)
	}
	return `{"environment":{"types":[{"name":"x","kind":"engine","mean_service":1}]},"workflows":[{"name":"w","arrival_rate":1,"chart":` +
		chart + `,"activities":[{"name":"A","mean_duration":1,"load":{"x":1}}]}]}`
}

// differentialSeeds are the documents where a hand-written parser and
// encoding/json are most likely to part ways, on top of FuzzDecode's.
func differentialSeeds() []string {
	compact := `{"environment":{"types":[{"name":"x","kind":"engine","mean_service":1,"service_scv":0.5,"mttf":100,"mttr":1}]},` +
		`"workflows":[{"name":"w","arrival_rate":1,"chart":{"name":"w","initial":"i","final":"f",` +
		`"states":[{"name":"i"},{"name":"a","activity":"A","interactive":true},{"name":"f"}],` +
		`"transitions":[{"from":"i","to":"a","prob":1},{"from":"a","to":"f","prob":1,"event":"e","cond":"c","actions":[{"kind":"raise","target":"t"}]}]},` +
		`"activities":[{"name":"A","mean_duration":1,"stages":2,"load":{"x":1}}]}]}`
	swap := func(old, new string) string {
		if !strings.Contains(compact, old) {
			panic("seed edit does not apply: " + old)
		}
		return strings.Replace(compact, old, new, 1)
	}
	seeds := append([]string(nil), decodeSeeds...)
	return append(seeds,
		compact,
		// Keys: case variants fold onto the field, a repeated member merges
		// into the first, an escaped key is still the key.
		swap(`"environment"`, `"Environment"`),
		swap(`"kind":"engine"`, `"KIND":"engine"`),
		swap(`"mean_service":1`, `"mean_service":1,"mean_service":2`),
		swap(`"name":"x"`, `"name":"x","Name":"y"`),
		swap(`"workflows":[`, `"workflows":[],"workflows":[`),
		swap(`"states":[`, `"states":[{"name":"z"}],"states":[`),
		swap(`"load":{"x":1}`, `"load":{"x":1,"x":2}`),
		swap(`"load":{"x":1}`, `"load":{"x":1},"load":{"y":2}`),
		swap(`"chart":{`, `"chart":{"name":"first"},"chart":{`),
		swap(`"prob"`, `"pr\u006fb"`),
		swap(`"kind":"engine"`, "\"k\u0131nd\":\"engine\""),
		swap(`"stages":2`, "\"\u017ftages\":2"),
		swap(`"name":"x"`, `"name":"x","extra":1`),
		// Strings: escapes, bytes a JSON string may not carry, non-ASCII.
		swap(`"name":"x"`, `"name":"\u0078"`),
		swap(`"name":"x"`, `"name":"a\"b\\c\/d"`),
		swap(`"name":"x"`, `"name":"\ud83d"`),
		swap(`"name":"x"`, "\"name\":\"a\xffb\""),
		swap(`"name":"x"`, "\"name\":\"a\tb\""),
		swap(`"name":"x"`, "\"name\":\"a\x00b\""),
		swap(`"name":"x"`, "\"name\":\"Pr\u00fcfung \u2713 \u2028\""),
		swap(`"load":{"x":1}`, "\"load\":{\"\u00fc\":1,\"\xff\":2,\"\ufffd\":3}"),
		swap(`"load":{"x":1}`, `"load":{"\u0078":1,"x":2}`),
		// null, for every kind of member.
		`null`,
		swap(`"name":"x"`, `"name":null`),
		swap(`"mean_service":1`, `"mean_service":null`),
		swap(`"interactive":true`, `"interactive":null`),
		swap(`"stages":2`, `"stages":null`),
		swap(`"load":{"x":1}`, `"load":null`),
		swap(`"load":{"x":1}`, `"load":{"x":null}`),
		swap(`"actions":[{"kind":"raise","target":"t"}]`, `"actions":null`),
		swap(`"actions":[{"kind":"raise","target":"t"}]`, `"actions":[null]`),
		swap(`"environment":{`, `"environment":null,"unused":{`),
		swap(`"workflows":[`, `"workflows":null,"unused":[`),
		// Empty containers are not absent ones.
		swap(`"actions":[{"kind":"raise","target":"t"}]`, `"actions":[]`),
		swap(`"load":{"x":1}`, `"load":{}`),
		swap(`{"name":"i"}`, `{"name":"i","subcharts":[]}`),
		swap(`{"name":"i"}`, `{}`),
		`{}`,
		`{"workflows":[{}]}`,
		`{"environment":{}}`,
		// Numbers: what strconv takes for the field's type and nothing else.
		swap(`"mean_service":1`, `"mean_service":1e999`),
		swap(`"mean_service":1`, `"mean_service":-1e999`),
		swap(`"mean_service":1`, `"mean_service":1e-999`),
		swap(`"mean_service":1`, `"mean_service":-0`),
		swap(`"mean_service":1`, `"mean_service":-0.0e-0`),
		swap(`"mean_service":1`, `"mean_service":1.7976931348623157e308`),
		swap(`"mean_service":1`, `"mean_service":4.9E-324`),
		swap(`"mean_service":1`, `"mean_service":1.`),
		swap(`"mean_service":1`, `"mean_service":.5`),
		swap(`"mean_service":1`, `"mean_service":01`),
		swap(`"mean_service":1`, `"mean_service":+1`),
		swap(`"mean_service":1`, `"mean_service":1e`),
		swap(`"mean_service":1`, `"mean_service":0x10`),
		swap(`"mean_service":1`, `"mean_service":1_000`),
		swap(`"mean_service":1`, `"mean_service":NaN`),
		swap(`"mean_service":1`, `"mean_service":"1"`),
		swap(`"mean_service":1`, `"mean_service":[1]`),
		swap(`"mean_service":1`, `"mean_service":12345678901234567890123456789012345678901234567890`),
		swap(`"stages":2`, `"stages":1.0`),
		swap(`"stages":2`, `"stages":1e2`),
		swap(`"stages":2`, `"stages":-0`),
		swap(`"stages":2`, `"stages":-3`),
		swap(`"stages":2`, `"stages":9223372036854775807`),
		swap(`"stages":2`, `"stages":9223372036854775808`),
		swap(`"stages":2`, `"stages":"2"`),
		// Booleans and wrong types.
		swap(`"interactive":true`, `"interactive":false`),
		swap(`"interactive":true`, `"interactive":True`),
		swap(`"interactive":true`, `"interactive":truex`),
		swap(`"interactive":true`, `"interactive":1`),
		swap(`"interactive":true`, `"interactive":"true"`),
		swap(`"name":"x"`, `"name":1`),
		swap(`"name":"x"`, `"name":{"a":1}`),
		swap(`"load":{"x":1}`, `"load":[1]`),
		swap(`"workflows":[`, `"workflows":{},"unused":[`),
		`[]`, `"environment"`, `7`, `true`,
		// Whitespace: around every token, CRLF, and bytes that are not JSON
		// whitespace.
		" \t\r\n"+strings.NewReplacer(`{`, " {\r\n ", `}`, "\r\n } ", `[`, " [\t", `]`, "\t] ", `:`, " : ", `,`, " ,\r\n").Replace(compact)+"\r\n",
		"\v"+compact,
		swap(`"name":"x"`, "\"name\"\v:\"x\""),
		swap(`"name":"x"`, "\"name\":\"x\"\u00a0"),
		// Nesting: within the parser's bound and beyond it.
		nested(maxChartDepth),
		nested(maxChartDepth+1),
		nested(100),
		// One document is read; what follows it is not Decode's concern.
		compact+` garbage`,
		compact+compact,
		compact+`}`,
		compact+`]`,
		compact+`,`,
		// Malformed.
		swap(`"mttr":1}`, `"mttr":1,}`),
		swap(`{"name":"x"`, `{,"name":"x"`),
		swap(`"name":"x",`, `"name":"x" `),
		swap(`"name":"x"`, `"name" "x"`),
		swap(`"types":[{`, `"types":[,{`),
		swap(`"mttr":1}]`, `"mttr":1},]`),
		compact[:len(compact)-1],
		compact[:len(compact)/2],
		`{"environment"`, `{"environment":`, `{"`, `}`, ``, `   `, `not json at all`,
	)
}

func TestDocumentMatchesEncodingJSON(t *testing.T) {
	for _, in := range differentialSeeds() {
		requireMatchesEncodingJSON(t, []byte(in))
	}
	// Nesting beyond encoding/json's own bound; too big to be a fuzz seed
	// (every mutation would copy 150 KB).
	requireMatchesEncodingJSON(t, []byte(strings.Repeat(`{"environment":`, 10001)))
	// The parser must take the dialect, not merely agree when it does.
	for _, in := range []string{sampleDoc, nested(maxChartDepth)} {
		if !requireMatchesEncodingJSON(t, []byte(in)) {
			t.Errorf("parser refused a document in the dialect: %.80q...", in)
		}
	}
	if requireMatchesEncodingJSON(t, []byte(nested(maxChartDepth+1))) {
		t.Errorf("parser accepted subcharts nested deeper than %d", maxChartDepth)
	}
}

func FuzzDocumentMatchesEncodingJSON(f *testing.F) {
	for _, in := range differentialSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		requireMatchesEncodingJSON(t, []byte(in))
	})
}

// corpusDocuments returns the checked-in corpus systems by file name.
func corpusDocuments(tb testing.TB) map[string][]byte {
	tb.Helper()
	files, err := filepath.Glob("../../corpus/systems/*.wfjson")
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) != 22 {
		tb.Fatalf("found %d corpus systems, want 22", len(files))
	}
	docs := make(map[string][]byte, len(files))
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		docs[filepath.Base(file)] = b
	}
	return docs
}

// TestCorpusTakesFastPath pins that what the repository's producers
// write — the corpus files as checked in, and the compact canonical form
// the server is posted — is the dialect the parser accepts: a refusal
// here is a silent slowdown everywhere, so it is a failure.
func TestCorpusTakesFastPath(t *testing.T) {
	for name, indented := range corpusDocuments(t) {
		if !requireMatchesEncodingJSON(t, indented) {
			t.Errorf("%s: parser refused the checked-in file", name)
		}
		env, flows, err := Decode(bytes.NewReader(indented))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc, err := ToDocument(env, flows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compact, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !requireMatchesEncodingJSON(t, compact) {
			t.Errorf("%s: parser refused json.Marshal(ToDocument(...))", name)
		}
	}
}

// requireAppendMatchesMarshal fails unless appendDocument and
// json.Marshal agree on doc: the same bytes, or the same error.
func requireAppendMatchesMarshal(t *testing.T, doc *Document) {
	t.Helper()
	want, wantErr := json.Marshal(doc)
	got, gotErr := appendDocument(nil, doc)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("error diverged\n got: %v\nwant: %v", gotErr, wantErr)
		}
		return
	}
	if gotErr != nil || !bytes.Equal(got, want) {
		t.Fatalf("serialisation diverged\n got: %s (%v)\nwant: %s", got, gotErr, want)
	}
	if withPrefix, _ := appendDocument([]byte("prefix"), doc); string(withPrefix) != "prefix"+string(want) {
		t.Fatalf("appendDocument does not append: %s", withPrefix)
	}
}

func TestAppendDocumentMatchesMarshal(t *testing.T) {
	// Every document the differential seeds and the corpus decode to.
	inputs := differentialSeeds()
	for _, b := range corpusDocuments(t) {
		inputs = append(inputs, string(b))
	}
	decoded := 0
	for _, in := range inputs {
		doc, _, err := referenceDocument([]byte(in))
		if err != nil {
			continue
		}
		decoded++
		requireAppendMatchesMarshal(t, &doc)
	}
	if decoded < 60 {
		t.Errorf("only %d seeds decoded; the table is not exercising the writer", decoded)
	}

	// Strings json.Marshal does not write as they are, in every string
	// member and as load keys.
	for _, s := range []string{
		"", "plain", `<script>&amp;</script>`, `quote " backslash \ slash /`,
		"tab\tnewline\ncr\rbell\abackspace\bformfeed\fnul\x00del\x7f",
		"line\u2028sep para\u2029sep", "Pr\u00fcfung \u2713 \U0001F600",
		"bad\xffutf8", "\xed\xa0\x80", "truncated\xe2\x82",
	} {
		requireAppendMatchesMarshal(t, &Document{
			Environment: Environment{Types: []ServerType{{Name: s, Kind: s}}},
			Workflows: []Workflow{{
				Name: s,
				Chart: Chart{
					Name: s, Initial: s, Final: s,
					States:      []State{{Name: s, Activity: s, Subcharts: []Chart{{Name: s}}}},
					Transitions: []Transition{{From: s, To: s, Event: s, Cond: s, Actions: []Action{{Kind: s, Target: s}}}},
				},
				Activities: []Activity{{Name: s, Load: map[string]float64{s: 1, s + "b": 2, "a" + s: 3}}},
			}},
		})
	}

	// Floats: across the format switches at 1e-6 and 1e21, the exponent
	// clean-up, both zeros, and the values json.Marshal refuses.
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 100, 1e6, 123456789.125, -2000, 1e15,
		1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), 1 << 62, math.MaxInt64, math.MinInt64,
		1e-6, 0.999e-6, 9.99999e-7, 1.0000001e-6, 1e-7, 1.5e-9, 1e-10, 1.25e-100, 4.9e-324,
		1e20, 9.99999e20, 1e21, 1.0000001e21, 1e22, 1.7976931348623157e308,
		-1e-7, -1e21, -5e-324, 43200, 0.0005,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, f := range floats {
		for field := 0; field < 7; field++ {
			v := [7]float64{1, 1, 1, 1, 1, 1, 1}
			v[field] = f
			requireAppendMatchesMarshal(t, &Document{
				Environment: Environment{Types: []ServerType{{MeanService: v[0], ServiceSCV: v[1], MTTF: v[2], MTTR: v[3]}}},
				Workflows: []Workflow{{
					ArrivalRate: v[4],
					Chart:       Chart{Transitions: []Transition{{Prob: v[5]}}},
					Activities:  []Activity{{MeanDuration: v[6], Load: map[string]float64{"x": f}}},
				}},
			})
		}
	}

	// Stages, and slices that are nil, empty, or omitted when empty.
	for _, stages := range []int{0, 1, -1, 12, math.MaxInt64, math.MinInt64} {
		requireAppendMatchesMarshal(t, &Document{Workflows: []Workflow{{Activities: []Activity{{Stages: stages}}}}})
	}
	requireAppendMatchesMarshal(t, &Document{})
	requireAppendMatchesMarshal(t, &Document{
		Environment: Environment{Types: []ServerType{}},
		Workflows: []Workflow{{
			Chart: Chart{
				States:      []State{{Subcharts: []Chart{}}, {Interactive: true}},
				Transitions: []Transition{{Actions: []Action{}}},
			},
			Activities: []Activity{{Load: map[string]float64{}}},
		}, {
			Chart:      Chart{States: []State{}, Transitions: []Transition{}},
			Activities: []Activity{},
		}},
	})
	requireAppendMatchesMarshal(t, &Document{Workflows: []Workflow{}})
}

// TestDecodeFingerprintAllocationCeiling pins that a posted corpus
// document is decoded by the parser and serialised by appendDocument:
// the day a producer and the parser drift apart, or Fingerprint goes back
// to reflection, it shows here and not as a slower server. FromDocument
// and ToDocument allocate most of what the path allocates and differ by
// Go version, so the ceiling is set against the encoding/json route
// measured alongside: 214 allocations there, 151 here, and either
// regression alone gives back at least 27 of the 63.
func TestDecodeFingerprintAllocationCeiling(t *testing.T) {
	in := corpusDocuments(t)["sky-mosaic.wfjson"]
	fingerprint := func(doc *Document, serialise func(*Document) ([]byte, error)) {
		env, flows, err := FromDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := ToDocument(env, flows)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := serialise(canonical)
		if err != nil {
			t.Fatal(err)
		}
		sha256.Sum256(buf)
	}
	reference := testing.AllocsPerRun(20, func() {
		doc, _, err := referenceDocument(in)
		if err != nil {
			t.Fatal(err)
		}
		fingerprint(&doc, func(doc *Document) ([]byte, error) { return json.Marshal(doc) })
	})
	allocs := testing.AllocsPerRun(20, func() {
		var doc Document
		if _, ok := ParseDocument(in, &doc); !ok {
			t.Fatal("parser refused a corpus document")
		}
		env, flows, err := FromDocument(&doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Fingerprint(env, flows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > reference-45 {
		t.Errorf("decode + fingerprint of one corpus document made %.0f allocations, the encoding/json route %.0f; want at least 45 fewer", allocs, reference)
	}
}
