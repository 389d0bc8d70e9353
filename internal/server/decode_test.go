package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"performa/internal/audit"
	"performa/internal/workload"
)

// postOn posts body to path on the handler and returns the status and
// the reply, byte for byte.
func postOn(handler http.Handler, path, body string) (int, string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// splitAndWhole returns two fresh servers' handlers: one decoding bodies
// as decodeBody does, one with every body sent through encoding/json
// whole, as before the split existed. Posted the same sequence, the two
// must answer identically.
func splitAndWhole() (split, whole http.Handler) {
	a := New(Options{Workers: 1, RequestTimeout: 2 * time.Second, Logger: testLogger()})
	b := New(Options{Workers: 1, RequestTimeout: 2 * time.Second, Logger: testLogger()})
	b.noBodySplit = true
	return a.Handler(), b.Handler()
}

// warmSplitAndWhole is splitAndWhole with the paper system's model
// resident on both servers, so a compact post of it hits by digest on
// the split one; fp is the system's fingerprint.
func warmSplitAndWhole(t testing.TB) (split, whole http.Handler, fp string) {
	split, whole = splitAndWhole()
	valid := crashSeeds(t)[0]
	for _, h := range []http.Handler{split, whole} {
		status, reply := postOn(h, "/v1/assess", valid)
		var resp AssessResponse
		if err := json.Unmarshal([]byte(reply), &resp); status != http.StatusOK || err != nil {
			t.Fatalf("warming: %d %s", status, reply)
		}
		fp = resp.Fingerprint
	}
	return split, whole, fp
}

// splitBodies are the bodies the decode routes are held against each
// other on: FuzzAssessCrashSafety's seeds, and the bodies where splitting
// or the digest route could show — a second "system" member, members the
// envelope decode rejects, documents the parser refuses, spans that are
// not, or not under these options, the canonical form of a resident
// model.
func splitBodies(t testing.TB) []string {
	seeds := crashSeeds(t)
	valid := seeds[0]
	doc := valid[len(`{"system":`):strings.Index(valid, `,"config"`)]
	rest := valid[strings.Index(valid, `,"config"`)+1:] // "config":...,"goals":{...}}
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(valid), "", "\t"); err != nil {
		t.Fatal(err)
	}
	swap := func(old, new string) string {
		if !strings.Contains(valid, old) {
			t.Fatalf("body edit does not apply: %s", old)
		}
		return strings.Replace(valid, old, new, 1)
	}
	escaped, _ := paperSystem(t)
	escaped.Workflows[0].Name = "<EP> & co"
	html, err := json.Marshal(AssessRequest{System: escaped, Config: []int{2, 2, 2}, Goals: GoalsJSON{MaxUnavailability: 1e-5}})
	if err != nil {
		t.Fatal(err)
	}
	return append(seeds,
		indented.String(),
		strings.ReplaceAll(indented.String(), "\n", "\r\n"),
		" \n"+valid+"\n ",
		// "system" elsewhere than first, or not spelled exactly.
		`{`+strings.TrimSuffix(rest, `}`)+`,"system":`+doc+`}`,
		swap(`{"system":`, `{"System":`),
		swap(`{"system":`, `{"syst\u0065m":`),
		swap(`{"system":`, `{"config":[2,2,2],"system":`),
		// A second "system" merges into the first, whichever route decoded
		// it, under every spelling encoding/json folds onto the name.
		swap(`,"config"`, `,"system":{"workflows":[]},"config"`),
		swap(`,"config"`, `,"system":{"workflows":[{"name":"renamed"}]},"config"`),
		swap(`,"config"`, `,"SYSTEM":{"environment":{"types":null}},"config"`),
		swap(`,"config"`, `,"ſystem":{"workflows":null},"config"`),
		swap(`,"config"`, `,"syſtem":{"workflows":[]},"config"`),
		swap(`,"config"`, `,"ſyſtem":{},"config"`),
		swap(`,"config"`, `,"syst\u0065m":{"workflows":[]},"config"`),
		swap(`,"config"`, `,"sYsTeM":{},"config"`),
		swap(`,"config"`, `,"system":{},"config"`),
		swap(`,"config"`, `,"system":null,"config"`),
		`{"system":`+doc+`,"system":`+doc+`,`+rest,
		// Bytes that only look like a second "system" take the same route.
		swap(`,"config"`, `,"model":{"policy":"ops-system"},"config"`),
		swap(`,"config"`, `,"model":{"policy":"a\"b"},"config"`),
		swap(`,"config"`, `,"model":{"policy":"écosystème"},"config"`),
		// The remaining members: absent, malformed, mistyped, unknown.
		`{"system":`+doc+`}`,
		`{"system":`+doc+` } `,
		`{"system":`+doc+`,}`,
		`{"system":`+doc+`,,`+rest,
		`{"system":`+doc+` `+rest,
		`{"system":`+doc+`,`+strings.TrimSuffix(rest, `}`),
		`{"system":`+doc,
		`{"system":`+doc+`}}`,
		`{"system":`+doc+`] `+rest,
		swap(`"config":[2,2,2]`, `"config":"2,2,2"`),
		swap(`"config":[2,2,2]`, `"config":[2,2,2.5]`),
		swap(`"config":[2,2,2]`, `"config":[2,2,2],"bogus":1`),
		swap(`"config":[2,2,2]`, `"config":[2,2,2],"model":{"solver":"x"}`),
		swap(`"config":[2,2,2]`, `"config":[2,2,2],"model":{"policy":"bogus"}`),
		swap(`"config":[2,2,2]`, `"config":null`),
		// The canonical document under other options: the digest is a
		// resident model's fingerprint, the key is not.
		swap(`"config":[2,2,2]`, `"config":[2,2,2],"model":{"discipline":"single-crew"}`),
		// One space more than canonical: the digest misses.
		swap(`{"system":{"environment":`, `{"system":{"environment": `),
		// Names encoding/json escapes for HTML: canonical, but outside the
		// parser's dialect.
		string(html),
		// Documents the parser refuses.
		swap(`{"system":{`, `{"system":{"bogus":1,`),
		swap(`"mean_service"`, `"Mean_Service"`),
		swap(`"mean_service"`, `"mean_servic\u0065"`),
		swap(`"kind":"communication"`, `"kind":null`),
		swap(`"kind":"communication"`, `"kind":"communication","kind":"engine"`),
		swap(`"kind":"communication"`, `"kind":"comm\u0075nication"`),
		swap(`"kind":"communication"`, "\"kind\":\"comm\xffnication\""),
		swap(`"mean_service":`, `"mean_service":1e999,"mttf":`),
		swap(`"mean_service":`, `"mean_service":}{,"mttf":`),
		swap(`"kind":"communication"`, `"kind":"comm}unication"`),
		// ... and with options the envelope refuses, or a stray bracket.
		strings.TrimSuffix(swap(`"mean_service":`, `"mean_service":x,"mttf":`), `}`)+`,"model":{"policy":"bogus"}}`,
		strings.TrimSuffix(swap(`"mean_service":`, `"mean_service":x,"mttf":`), `}`)+`,"timeout_ms":-1}`,
		`{"system":null,`+rest,
		`{"system":[],`+rest,
		`{"system":"{}",`+rest,
		`{"system":`+strings.Repeat(`{"environment":`, 10001),
		``, ` `, `null`, `[]`, `{}`, `{"system"`, `{"system":`, `{"system":{`,
	)
}

// TestBodySplitChangesNothing holds decodeBody's two routes against each
// other through the whole handler: every one of splitBodies, posted
// twice, answers with the same status and reply bytes either way, on
// fresh servers and on servers where the paper system's model is
// resident, so that the digest route hits. Last, a drift crossing moves
// the system to a new generation: a canonical post must build and then
// hit that generation's model, as a parsed one does.
func TestBodySplitChangesNothing(t *testing.T) {
	bodies := splitBodies(t)
	valid := bodies[0]
	split, whole := splitAndWhole()
	warmSplit, warmWhole, fp := warmSplitAndWhole(t)
	for _, pair := range [][2]http.Handler{{split, whole}, {warmSplit, warmWhole}} {
		for _, body := range bodies {
			for range 2 {
				gotStatus, got := postOn(pair[0], "/v1/assess", body)
				wantStatus, want := postOn(pair[1], "/v1/assess", body)
				if gotStatus != wantStatus || got != want {
					t.Errorf("split and whole decode diverged\n got: %d %s\nwant: %d %s\nbody: %.300q", gotStatus, got, wantStatus, want, body)
				}
			}
		}
	}
	if status, reply := postOn(split, "/v1/assess", valid); status != http.StatusOK {
		t.Fatalf("valid body: status %d: %s", status, reply)
	}

	// /v1/recommend validates more of the envelope before it resolves the
	// system; a malformed system is still the error a client sees first.
	recommend := `{"system":` + valid[len(`{"system":`):strings.Index(valid, `,"config"`)] + `,"goals":{"max_unavailability":1e-5}`
	malformed := strings.Replace(recommend, `"mean_service":`, `"mean_service":x,"mttf":`, 1)
	for _, body := range []string{
		recommend + `}`,
		recommend + `,"planner":"bnb"}`,
		recommend + `,"planner":"bogus"}`,
		recommend + `,"timeout_ms":-1}`,
		recommend + `,"model":{"turnaround":"net"}}`,
		malformed + `}`,
		malformed + `,"planner":"bogus"}`,
		malformed + `,"timeout_ms":-1}`,
		malformed + `,"model":{"turnaround":"net"}}`,
	} {
		for _, pair := range [][2]http.Handler{{split, whole}, {warmSplit, warmWhole}} {
			gotStatus, got := postOn(pair[0], "/v1/recommend", body)
			wantStatus, want := postOn(pair[1], "/v1/recommend", body)
			if gotStatus == http.StatusOK && wantStatus == http.StatusOK {
				got, want = withoutElapsed(t, got), withoutElapsed(t, want)
			}
			if gotStatus != wantStatus || got != want {
				t.Errorf("recommend: split and whole decode diverged\n got: %d %s\nwant: %d %s\nbody: %.300q", gotStatus, got, wantStatus, want, body)
			}
		}
	}

	env := workload.PaperEnvironment()
	var drift bytes.Buffer
	for i := range 60 {
		st := env.Type(0)
		json.NewEncoder(&drift).Encode(audit.Record{Kind: audit.ServiceRequest, Time: float64(i), ServerType: st.Name, Service: 10 * st.MeanService})
	}
	for _, h := range []http.Handler{warmSplit, warmWhole} {
		status, reply := postOn(h, "/v1/events?fingerprint="+fp, drift.String())
		var ev EventsResponse
		if err := json.Unmarshal([]byte(reply), &ev); status != http.StatusOK || err != nil || !ev.Invalidated {
			t.Fatalf("drift batch: %d %s", status, reply)
		}
	}
	for i, wantWarm := range []bool{false, true} {
		gotStatus, got := postOn(warmSplit, "/v1/assess", valid)
		wantStatus, want := postOn(warmWhole, "/v1/assess", valid)
		var resp AssessResponse
		if err := json.Unmarshal([]byte(got), &resp); gotStatus != http.StatusOK || err != nil || resp.CacheWarm != wantWarm {
			t.Errorf("post %d after drift: %d %s; want 200 with cache_warm %v", i+1, gotStatus, got, wantWarm)
		}
		if gotStatus != wantStatus || got != want {
			t.Errorf("post %d after drift: split and whole decode diverged\n got: %d %s\nwant: %d %s", i+1, gotStatus, got, wantStatus, want)
		}
	}
}

// withoutElapsed is a recommend reply with its wall-clock time zeroed.
func withoutElapsed(t *testing.T, reply string) string {
	var resp RecommendResponse
	if err := json.Unmarshal([]byte(reply), &resp); err != nil {
		t.Fatalf("%v: %s", err, reply)
	}
	resp.ElapsedMS = 0
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// FuzzDigestRouteChangesNothing holds decodeBody's two routes against
// each other on mutated bodies, on servers where the paper system's
// model is resident, so that a mutation keeping the system canonical
// hits by digest: status and reply bytes must be the same either way. A
// reply that hit its deadline on either server is not compared; how far
// a solve got by then is the machine's, not the route's.
func FuzzDigestRouteChangesNothing(f *testing.F) {
	for _, body := range splitBodies(f) {
		f.Add(body)
	}
	split, whole, _ := warmSplitAndWhole(f)
	f.Fuzz(func(t *testing.T, body string) {
		gotStatus, got := postOn(split, "/v1/assess", body)
		wantStatus, want := postOn(whole, "/v1/assess", body)
		if gotStatus == http.StatusGatewayTimeout || wantStatus == http.StatusGatewayTimeout {
			return
		}
		if gotStatus != wantStatus || got != want {
			t.Errorf("split and whole decode diverged\n got: %d %s\nwant: %d %s", gotStatus, got, wantStatus, want)
		}
	})
}

// TestBodySplitTakesMarshalledRequests pins that what a client gets from
// json.Marshal on each single-system request type is a body splitSystem
// takes: a refusal here is a silent slowdown of every request.
func TestBodySplitTakesMarshalledRequests(t *testing.T) {
	doc, _ := paperSystem(t)
	for name, req := range map[string]any{
		"assess":     AssessRequest{System: doc, Config: []int{2, 2, 2}},
		"recommend":  RecommendRequest{System: doc},
		"calibrate":  CalibrateRequest{System: doc},
		"deployment": DeploymentRequest{System: doc, Config: []int{2, 2, 2}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got AssessRequest
		if _, ok := splitSystem(body, &got.System); !ok {
			t.Errorf("%s: splitSystem refused json.Marshal's body", name)
		}
	}
}

// TestTrailingDataRejected is the regression for bodies followed by a
// stray closing bracket, which json.Decoder.More does not count as more:
// anything but whitespace after the JSON value is a 400, on either decode
// route and on the batch endpoints, which never split.
func TestTrailingDataRejected(t *testing.T) {
	valid := crashSeeds(t)[0]
	batch := `{"items":[` + valid + `]}`
	split, whole := splitAndWhole()
	post := func(handler http.Handler, path, body string) (int, ErrorResponse) {
		status, reply := postOn(handler, path, body)
		var e ErrorResponse
		if status != http.StatusOK {
			if err := json.Unmarshal([]byte(reply), &e); err != nil {
				t.Fatalf("status %d body is not well-formed JSON: %v\n%s", status, err, reply)
			}
		}
		return status, e
	}
	for _, route := range []struct {
		name, path, body string
		handler          http.Handler
	}{
		{"split", "/v1/assess", valid, split},
		{"whole", "/v1/assess", valid, whole},
		{"batch", "/v1/assess-batch", batch, split},
	} {
		for _, tail := range []string{"}", "]", "x", "1", "{}"} {
			for _, gap := range []string{"", " \r\n\t"} {
				status, e := post(route.handler, route.path, route.body+gap+tail)
				if status != http.StatusBadRequest || e.Error != "parsing request: trailing data after JSON document" || e.Code != "bad_request" {
					t.Errorf("%s: tail %q: status %d, code %q, error %q; want the 400 for trailing data", route.name, gap+tail, status, e.Code, e.Error)
				}
			}
		}
		if status, e := post(route.handler, route.path, route.body+" \r\n\t"); status != http.StatusOK {
			t.Errorf("%s: trailing whitespace: status %d: %s", route.name, status, e.Error)
		}
	}
}
