package wfjson

import (
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
	return seeds
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
		doc, _, err := referenceDocument([]byte(in))
		if err != nil {
			return
		}
		requireFingerprintAgrees(t, &doc)
	})
}
