package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
	a := New(Options{Workers: 1, Logger: testLogger()})
	b := New(Options{Workers: 1, Logger: testLogger()})
	b.noBodySplit = true
	return a.Handler(), b.Handler()
}

// TestBodySplitChangesNothing holds decodeBody's two routes against each
// other through the whole handler: for FuzzAssessCrashSafety's seeds and
// for the bodies where splitting could show — a second "system" member,
// members the envelope decode rejects, documents the parser refuses —
// status and reply are the same bytes either way.
func TestBodySplitChangesNothing(t *testing.T) {
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
	bodies := append(seeds,
		indented.String(),
		strings.ReplaceAll(indented.String(), "\n", "\r\n"),
		" \n"+valid+"\n ",
		// "system" elsewhere than first, or not spelled exactly.
		`{`+strings.TrimSuffix(rest, `}`)+`,"system":`+doc+`}`,
		swap(`{"system":`, `{"System":`),
		swap(`{"system":`, `{"syst\u0065m":`),
		swap(`{"system":`, `{"tenant":"t","system":`),
		// A second "system" merges into the first, whichever route decoded it.
		swap(`,"config"`, `,"system":{"workflows":[]},"config"`),
		swap(`,"config"`, `,"system":{"workflows":[{"name":"renamed"}]},"config"`),
		swap(`,"config"`, `,"SYSTEM":{"environment":{"types":null}},"config"`),
		swap(`,"config"`, `,"system":{},"config"`),
		swap(`,"config"`, `,"system":null,"config"`),
		`{"system":`+doc+`,"system":`+doc+`,`+rest,
		// The remaining members: absent, malformed, mistyped, unknown.
		`{"system":`+doc+`}`,
		`{"system":`+doc+` } `,
		`{"system":`+doc+`,}`,
		`{"system":`+doc+`,,`+rest,
		`{"system":`+doc+` `+rest,
		`{"system":`+doc+`,`+strings.TrimSuffix(rest, `}`),
		`{"system":`+doc,
		swap(`"config":[2,2,2]`, `"config":"2,2,2"`),
		swap(`"config":[2,2,2]`, `"config":[2,2,2.5]`),
		swap(`"config":[2,2,2]`, `"config":[2,2,2],"bogus":1`),
		swap(`"config":[2,2,2]`, `"config":[2,2,2],"model":{"solver":"x"}`),
		swap(`"config":[2,2,2]`, `"config":null`),
		// Documents the parser refuses.
		swap(`{"system":{`, `{"system":{"bogus":1,`),
		swap(`"mean_service"`, `"Mean_Service"`),
		swap(`"mean_service"`, `"mean_servic\u0065"`),
		swap(`"kind":"communication"`, `"kind":null`),
		swap(`"kind":"communication"`, `"kind":"communication","kind":"engine"`),
		swap(`"kind":"communication"`, `"kind":"comm\u0075nication"`),
		swap(`"kind":"communication"`, "\"kind\":\"comm\xffnication\""),
		swap(`"mean_service":`, `"mean_service":1e999,"mttf":`),
		`{"system":null,`+rest,
		`{"system":[],`+rest,
		`{"system":`+strings.Repeat(`{"environment":`, 10001),
		``, ` `, `null`, `[]`, `{}`, `{"system"`, `{"system":`,
	)
	split, whole := splitAndWhole()
	for _, body := range bodies {
		gotStatus, got := postOn(split, "/v1/assess", body)
		wantStatus, want := postOn(whole, "/v1/assess", body)
		if gotStatus != wantStatus || got != want {
			t.Errorf("split and whole decode diverged\n got: %d %s\nwant: %d %s\nbody: %.300q", gotStatus, got, wantStatus, want, body)
		}
	}
	if status, reply := postOn(split, "/v1/assess", valid); status != http.StatusOK {
		t.Fatalf("valid body: status %d: %s", status, reply)
	}
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
