package wfjson_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"performa/internal/crossval"
	"performa/internal/spec"
	"performa/internal/wfjson"
)

// marshalFingerprint is Fingerprint as it was before appendDocument: the
// canonical document through json.Marshal. It survives here as the
// oracle — json.Marshal(ToDocument(...)) defines the digest.
func marshalFingerprint(t *testing.T, env *spec.Environment, flows []*spec.Workflow) string {
	t.Helper()
	doc, err := wfjson.ToDocument(env, flows)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// corpusFingerprints are the digests of the checked-in corpus systems,
// computed at the commit before Fingerprint stopped calling json.Marshal.
// Model-cache keys, /v1/events?fingerprint= streams and advisories are
// addressed by these; a change here strands every one of them.
var corpusFingerprints = map[string]string{
	"blast-160.wfjson":               "b6af92d22cc37a7237c4995927e28d937da6f59e6555abd7edde6fd17ac04870",
	"blast-40.wfjson":                "fd6f9345a36ae1e95fb4b86c1779c2739fe1a955e30e7ae5f459409d668d1cd6",
	"blast-scaled-320.wfjson":        "e13b99a1ec11f3038843ceea7a89b1a8a3e630205e9ac650d254507435e3394e",
	"cycles-200.wfjson":              "0756c5facfe4b45d5ce2f5e149ca1b9b6f2eeaa326d6721b39c44e60ad0ee166",
	"cycles-60.wfjson":               "233622f739acb9b5042657f25cab13fe89ac5b03bc4da34fb10db00c0c396189",
	"epidemiology-240.wfjson":        "48ad02ad52118f69a2982422f0b201ebf4841910510a2bb8ff5d83ad51ae95ba",
	"epidemiology-45.wfjson":         "42ccc1ab646946d00052364eae4358220adda9489f87cd59891f3633b30ce484",
	"epidemiology-scaled-300.wfjson": "0515213bb4031e2650ea023bef8c9fc996a30fc9312c7eb50aaa49ebe42af499",
	"epigenomics-200.wfjson":         "ddf974f3322c8ead14afe19a44094e710d20a1b074ff253adc05ff2c031d0249",
	"epigenomics-50.wfjson":          "23cd084600cda5af406b7c9a00652679363b043b96c7e10526f14d37262cf4de",
	"epigenomics-90-wide.wfjson":     "c09cbdb8693eac7f2e2f02db1ef977b16ae60ce9a04a4e85282f7ad4f854c19b",
	"genome-sequencing.wfjson":       "d893d5976ecd10a16da549ddcabcb588e37197cd94f6567d580e2438fff2bc3c",
	"ml-pipeline-220.wfjson":         "882cc251d858df7e6f5505f2c73dcc139bddaf8eea2c9d7b11e9f8d6810bcc59",
	"ml-pipeline-60-slow.wfjson":     "89917c6b293de40e662437b21f4f4766e4c496d26ffb6e489e309f9dbadf8a34",
	"ml-pipeline-80.wfjson":          "d38883300811696e23b3370dc18ad293fbd264dddf8863608d65182da9839eff",
	"montage-180.wfjson":             "20738cbf5dd75ed29b812c1b613248de156b17663aba5e6cbc37a4e5e535028e",
	"montage-60.wfjson":              "35257a5582f08ea331ace0b370b27cfbf3cdddaa08576bf7708429d9b8c2b06b",
	"montage-scaled-240.wfjson":      "b6ae2dfb7c0d5f1fea008f0e1c2e35216383c892dd058b2c4f1e1087d63c3e09",
	"seismology-150.wfjson":          "948879e7aecd311602f5d889b97b436a5c96cc0d59d3691461ee80da365d2e46",
	"seismology-30.wfjson":           "bc0ec9504cb0466a1e3eaa3f0ce184ae6f30c413fa8677c248effbb61e187133",
	"seismology-90-wide.wfjson":      "0c200b5ab848b053fedb918bdb339efd1333071254ba9334d557366f4db7cb89",
	"sky-mosaic.wfjson":              "c605da8f67f9672feb58bd495840ce0389e81d8c82422e76cddc083f819f1df6",
}

func TestFingerprintUnchanged(t *testing.T) {
	files, err := filepath.Glob("../../corpus/systems/*.wfjson")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(corpusFingerprints) {
		t.Fatalf("found %d corpus systems, golden table has %d", len(files), len(corpusFingerprints))
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		env, flows, err := wfjson.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		got, err := wfjson.Fingerprint(env, flows)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if want := marshalFingerprint(t, env, flows); got != want {
			t.Errorf("%s: fingerprint %s, json.Marshal's digest %s", file, got, want)
		}
		if want := corpusFingerprints[filepath.Base(file)]; got != want {
			t.Errorf("%s: fingerprint %s, golden %s", file, got, want)
		}
	}
	for seed := uint64(1); seed <= 200; seed++ {
		sys, err := crossval.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := wfjson.Fingerprint(sys.Env, sys.Flows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := marshalFingerprint(t, sys.Env, sys.Flows); got != want {
			t.Errorf("seed %d: fingerprint %s, json.Marshal's digest %s", seed, got, want)
		}
	}
}

// permuted returns doc as another client might post the same system:
// every chart's states and every workflow's activities shuffled, an
// activity no state references appended, a stale duplicate of one
// profile put before it (the last of duplicates is the profile), and an
// exponential service time written as scv 0 instead of 1.
func permuted(doc *wfjson.Document, rng *rand.Rand) *wfjson.Document {
	var shuffleChart func(c *wfjson.Chart)
	shuffleChart = func(c *wfjson.Chart) {
		c.States = slices.Clone(c.States)
		rng.Shuffle(len(c.States), func(i, j int) { c.States[i], c.States[j] = c.States[j], c.States[i] })
		for i := range c.States {
			c.States[i].Subcharts = slices.Clone(c.States[i].Subcharts)
			for j := range c.States[i].Subcharts {
				shuffleChart(&c.States[i].Subcharts[j])
			}
		}
	}
	out := &wfjson.Document{
		Environment: wfjson.Environment{Types: slices.Clone(doc.Environment.Types)},
		Workflows:   slices.Clone(doc.Workflows),
	}
	for i := range out.Environment.Types {
		if st := &out.Environment.Types[i]; st.ServiceSCV == 1 {
			st.ServiceSCV = 0
		}
	}
	for i := range out.Workflows {
		w := &out.Workflows[i]
		shuffleChart(&w.Chart)
		acts := append(slices.Clone(w.Activities),
			wfjson.Activity{Name: "unreferenced", MeanDuration: 1, Load: map[string]float64{"nowhere": 1}})
		rng.Shuffle(len(acts), func(i, j int) { acts[i], acts[j] = acts[j], acts[i] })
		if n := len(w.Activities); n > 0 {
			stale := w.Activities[rng.IntN(n)]
			stale.MeanDuration *= 2
			acts = append([]wfjson.Activity{stale}, acts...)
		}
		w.Activities = acts
	}
	return out
}

// TestFingerprintDocumentMatchesFingerprint pins FingerprintDocument to
// Fingerprint on the corpus and 300 generated systems, each posted as
// written and permuted: the digest a warm hit is found by must be the
// one its model was built under.
func TestFingerprintDocumentMatchesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(label string, doc *wfjson.Document, want string) {
		t.Helper()
		for _, d := range []*wfjson.Document{doc, permuted(doc, rng)} {
			if got, ok := wfjson.FingerprintDocument(d); !ok || got != want {
				t.Errorf("%s: FingerprintDocument %q (ok %v), Fingerprint %s", label, got, ok, want)
			}
		}
	}
	files, err := filepath.Glob("../../corpus/systems/*.wfjson")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var doc wfjson.Document
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		check(file, &doc, corpusFingerprints[filepath.Base(file)])
	}
	for seed := uint64(1); seed <= 300; seed++ {
		sys, err := crossval.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := wfjson.Fingerprint(sys.Env, sys.Flows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		doc, err := wfjson.ToDocument(sys.Env, sys.Flows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d", seed), doc, want)
	}
}

// TestCanonicalBytesAreTheirOwnFingerprint pins that the canonical form
// is a fixed point: json.Marshal(ToDocument(...)) hashes to the
// fingerprint, IsCanonical certifies them, and decoded by encoding/json
// or by ParseDocument they fingerprint to it again. A server that finds a model by
// the digest of posted canonical bytes relies on this. It runs over the
// corpus and 300 generated systems, each also with its server types'
// numbers redrawn across many decades, where the reciprocal mttf/mttr
// and the scv search have the most room to drift.
func TestCanonicalBytesAreTheirOwnFingerprint(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	check := func(label string, env *spec.Environment, flows []*spec.Workflow) {
		t.Helper()
		fp, err := wfjson.Fingerprint(env, flows)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		doc, err := wfjson.ToDocument(env, flows)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != fp {
			t.Fatalf("%s: canonical bytes hash to %x, fingerprint is %s", label, sum, fp)
		}
		var viaJSON, viaParser wfjson.Document
		if err := json.Unmarshal(b, &viaJSON); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n, ok := wfjson.ParseDocument(b, &viaParser); !ok || n != len(b) {
			t.Fatalf("%s: ParseDocument refused canonical bytes", label)
		}
		if !wfjson.IsCanonical(b, &viaParser) {
			t.Fatalf("%s: IsCanonical does not certify canonical bytes", label)
		}
		for route, d := range map[string]*wfjson.Document{"encoding/json": &viaJSON, "ParseDocument": &viaParser} {
			if got, ok := wfjson.FingerprintDocument(d); !ok || got != fp {
				t.Errorf("%s: canonical bytes decoded by %s fingerprint to %q (ok %v), not %s:\n%s", label, route, got, ok, fp, b)
			}
		}
	}
	files, err := filepath.Glob("../../corpus/systems/*.wfjson")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		env, flows, err := wfjson.Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		check(file, env, flows)
	}
	decades := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*rng.Float64()) }
	for seed := uint64(1); seed <= 300; seed++ {
		sys, err := crossval.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d", seed), sys.Env, sys.Flows)
		doc, err := wfjson.ToDocument(sys.Env, sys.Flows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for v := range 10 {
			for i := range doc.Environment.Types {
				st := &doc.Environment.Types[i]
				st.MeanService = decades(-9, 3)
				st.ServiceSCV = decades(-6, 4)
				st.MTTF, st.MTTR = decades(-3, 12), decades(-6, 6)
			}
			env, flows, err := wfjson.FromDocument(doc)
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, v, err)
			}
			check(fmt.Sprintf("seed %d variant %d", seed, v), env, flows)
		}
	}
}
