package wfjson

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fingerprintSeeds are the wfjson fuzz corpus (the seed lists and the
// checked-in entries of FuzzDecode and FuzzDocumentMatchesEncodingJSON)
// and the corpus systems.
func fingerprintSeeds(tb testing.TB) []string {
	seeds := differentialSeeds()
	entries, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil {
		tb.Fatal(err)
	}
	for _, file := range entries {
		b, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		// "go test fuzz v1\nstring(<quoted>)\n"
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		seeds = append(seeds, s)
	}
	for _, doc := range corpusDocuments(tb) {
		seeds = append(seeds, string(doc))
	}
	for _, doc := range certificationRefusals() {
		seeds = append(seeds, doc)
	}
	return seeds
}

// certificationRefusals are canonical bytes (differentialSeeds' compact
// document) each changed in one way the canonical form never has: the
// parser reads every one, and IsCanonical must certify none.
func certificationRefusals() map[string]string {
	canonical := differentialSeeds()[len(decodeSeeds)]
	swap := func(old, new string) string {
		if !strings.Contains(canonical, old) {
			panic("refusal edit does not apply: " + old)
		}
		return strings.Replace(canonical, old, new, 1)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(canonical), "", "  "); err != nil {
		panic(err)
	}
	transitions := `[{"from":"i","to":"a","prob":1},{"from":"a","to":"f","prob":1,"event":"e","cond":"c","actions":[{"kind":"raise","target":"t"}]}]`
	return map[string]string{
		"indented":                 indented.String(),
		"leading space":            " " + canonical,
		"reordered keys":           swap(`"name":"x","kind":"engine"`, `"kind":"engine","name":"x"`),
		"scv zero":                 swap(`"service_scv":0.5`, `"service_scv":0`),
		"scv not shortest":         swap(`"service_scv":0.5`, `"service_scv":0.50`),
		"scv off the fixed point":  swap(`"service_scv":0.5`, `"service_scv":0.30000000000000004`),
		"mttf off the fixed point": swap(`"mttf":100`, `"mttf":0.9`), // 1/(1/0.9) is not 0.9,
		"integer written as float": swap(`"mean_duration":1`, `"mean_duration":1.0`),
		"exponent":                 swap(`"mean_duration":1`, `"mean_duration":1e0`),
		"unknown kind":             swap(`"kind":"engine"`, `"kind":"database"`),
		"load keys unsorted":       swap(`"load":{"x":1}`, `"load":{"y":1,"x":1}`),
		"load key repeated":        swap(`"load":{"x":1}`, `"load":{"x":1,"x":1}`),
		"load empty":               swap(`"load":{"x":1}`, `"load":{}`),
		"transitions empty":        swap(`"transitions":`+transitions, `"transitions":[]`),
		"actions empty":            swap(`"actions":[{"kind":"raise","target":"t"}]`, `"actions":[]`),
		"subcharts empty":          swap(`{"name":"f"}`, `{"name":"f","subcharts":[]}`),
		"interactive false":        swap(`"interactive":true`, `"interactive":false`),
		"stages zero":              swap(`"stages":2`, `"stages":0`),
		"activity empty":           swap(`{"name":"f"}`, `{"name":"f","activity":""}`),
		"name with <":              swap(`"name":"w","arrival_rate"`, `"name":"w<","arrival_rate"`),
		"name with U+2028":         swap(`"name":"w","arrival_rate"`, "\"name\":\"w\u2028\",\"arrival_rate\""),
		"states out of order":      swap(`{"name":"i"},{"name":"a","activity":"A","interactive":true}`, `{"name":"a","activity":"A","interactive":true},{"name":"i"}`),
		"unreferenced activity":    swap(`"load":{"x":1}}]`, `"load":{"x":1}},{"name":"B","mean_duration":1}]`),
		"activities out of order":  swap(`"activities":[`, `"activities":[{"name":"@","mean_duration":1},`),
		"member missing":           swap(`"prob":1,"event"`, `"event"`),
		"member repeated":          swap(`"arrival_rate":1`, `"arrival_rate":1,"arrival_rate":1`),
	}
}

// requireCertifiedDigest holds IsCanonical to what the server takes it
// for: bytes it certifies, decoded by ParseDocument or else by
// encoding/json, are the canonical form FingerprintDocument hashes, so
// their digest is the fingerprint.
func requireCertifiedDigest(t *testing.T, in []byte) (certified bool) {
	t.Helper()
	var doc Document
	end, ok := ParseDocument(in, &doc)
	if !ok {
		var err error
		var end64 int64
		if doc, end64, err = referenceDocument(in); err != nil {
			return false
		}
		end = int(end64)
	}
	if !IsCanonical(in[:end], &doc) {
		return false
	}
	c, cok := canonical(&doc)
	if !cok {
		t.Fatalf("IsCanonical certified a document canonicalisation refuses:\n%s", in[:end])
	}
	want, err := appendDocument(nil, c)
	if err != nil || !bytes.Equal(in[:end], want) {
		t.Fatalf("IsCanonical certified bytes that are not canonical (%v):\n got: %s\nwant: %s", err, in[:end], want)
	}
	sum := sha256.Sum256(in[:end])
	if fp, ok := FingerprintDocument(&doc); !ok || fp != hex.EncodeToString(sum[:]) {
		t.Fatalf("certified bytes hash to %x, FingerprintDocument %q (ok %v)", sum, fp, ok)
	}
	return true
}

// TestCertification pins which bytes IsCanonical certifies: the compact
// canonical document and the canonical bytes of every corpus system, and
// none of certificationRefusals, though the parser reads each of them.
func TestCertification(t *testing.T) {
	canonicalDocs := map[string][]byte{"compact": []byte(differentialSeeds()[len(decodeSeeds)])}
	for name, indented := range corpusDocuments(t) {
		var compact bytes.Buffer
		if err := json.Compact(&compact, indented); err != nil {
			t.Fatal(err)
		}
		canonicalDocs[name] = compact.Bytes()
	}
	for name, in := range canonicalDocs {
		if !requireCertifiedDigest(t, in) {
			t.Errorf("%s: canonical bytes not certified", name)
		}
	}
	for name, in := range certificationRefusals() {
		var doc Document
		if _, ok := ParseDocument([]byte(in), &doc); !ok {
			t.Errorf("%s: the parser refused the document", name)
		}
		if requireCertifiedDigest(t, []byte(in)) {
			t.Errorf("%s: certified:\n%s", name, in)
		}
	}
}

// requireFingerprintAgrees holds FingerprintDocument to its definition,
// Fingerprint(FromDocument(doc)): where FromDocument accepts doc, the two
// digests are equal; where it refuses, canonicalisation refuses too or
// its canonical bytes are a document FromDocument also refuses, so an
// invalid document never shares a fingerprint with a valid one. doc must
// come back as posted.
func requireFingerprintAgrees(t *testing.T, doc *Document) {
	t.Helper()
	before, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := FingerprintDocument(doc)
	if after, _ := json.Marshal(doc); string(after) != string(before) {
		t.Fatalf("FingerprintDocument changed the posted document:\n%s\n%s", before, after)
	}
	env, flows, err := FromDocument(doc)
	if err == nil {
		want, werr := Fingerprint(env, flows)
		switch {
		case werr != nil && ok:
			t.Fatalf("Fingerprint refused the system (%v), FingerprintDocument gave %s", werr, fp)
		case werr == nil && !ok:
			t.Fatalf("canonicalisation refused a document FromDocument accepts (fingerprint %s)", want)
		case werr == nil && fp != want:
			t.Fatalf("FingerprintDocument %s, Fingerprint(FromDocument) %s", fp, want)
		case werr == nil:
			requireCanonicalFixedPoint(t, doc, fp)
		}
		return
	}
	if !ok {
		return
	}
	c, _ := canonical(doc)
	b, err := appendDocument(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	var again Document
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatalf("canonical bytes do not parse: %v\n%s", err, b)
	}
	if _, _, err2 := FromDocument(&again); err2 == nil {
		t.Fatalf("FromDocument refuses the document (%v) but accepts its canonical form:\n%s", err, b)
	}
}

// requireCanonicalFixedPoint holds the canonical bytes of doc, whose
// fingerprint is fp, to being their own canonical form: they hash to fp,
// and decoded again they fingerprint to fp. A server that finds a model
// by the digest of posted canonical bytes relies on this; otherwise such
// a post would hit the entry of fp while a parsed post of the same bytes
// keys another.
func requireCanonicalFixedPoint(t testing.TB, doc *Document, fp string) {
	t.Helper()
	c, _ := canonical(doc)
	b, err := appendDocument(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != fp {
		t.Fatalf("canonical bytes hash to %x, fingerprint is %s", sum, fp)
	}
	var again Document
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatalf("canonical bytes do not parse: %v\n%s", err, b)
	}
	if got, ok := FingerprintDocument(&again); !ok || got != fp {
		t.Fatalf("canonical bytes fingerprint to %q (ok %v), not to their own digest %s:\n%s", got, ok, fp, b)
	}
}

func FuzzFingerprintDocument(f *testing.F) {
	for _, seed := range fingerprintSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		requireCertifiedDigest(t, []byte(in))
		doc, _, err := referenceDocument([]byte(in))
		if err != nil {
			return
		}
		requireFingerprintAgrees(t, &doc)
	})
}
