package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"performa/internal/jsonscan"
	"performa/internal/wfjson"
	"performa/internal/wfmserr"
)

// decodeBody reads the size-limited request body and strictly parses it
// into dst: unknown fields and anything but whitespace after the JSON
// value are errors. encoding/json defines what a body means and words
// every error.
//
// sys is the request's system when dst's top-level "system" member is a
// document, with sys.doc pointing at that member (nil for the batch
// requests, which nest theirs). A body that starts with that member —
// what every client marshalling these request types sends — is split:
// encoding/json decodes the remaining members as an object of their own,
// and the document is left in the body as sys's span, for resolve to
// find its model by or sys.parse to decode. Any other body, and any body
// whose remaining members encoding/json rejects, goes through
// encoding/json whole, so which route a body takes changes nothing a
// client can see.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, sys *system) error {
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// One allocation for an ordinary body; a declared length is only a
		// claim, so a large one still has to arrive to be allocated.
		buf.Grow(int(min(r.ContentLength, 64<<10)) + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	body := buf.Bytes()

	if sys != nil && readErr == nil && !s.noBodySplit {
		if sp, ok := splitSystem(body, sys.doc); ok && decodeRest(body, sp.rest, dst) == nil {
			sys.body, sys.span, sys.dst = body, sp.span, dst
			return nil
		}
	}
	return decodeStrict(body, readErr, dst)
}

// decodeDocument is decodeBody for a handler that needs the document
// itself, not only its model.
func (s *Server) decodeDocument(w http.ResponseWriter, r *http.Request, dst any, doc *wfjson.Document) error {
	sys := system{doc: doc}
	if err := s.decodeBody(w, r, dst, &sys); err != nil {
		return err
	}
	return sys.parse()
}

// split is where splitSystem found the parts of a body: span is the
// "system" member's value, and the remaining members start at rest, the
// index of the comma after it (-1 when it is the only member).
type split struct {
	span []byte
	rest int
}

// splitSystem recognises a body whose first member is "system", spelled
// exactly, with an object value, and finds that value's bytes without
// decoding them. It refuses a body whose remaining members might hold
// another member encoding/json folds onto "system" ("SYSTEM", "ſystem",
// "syst\u0065m"): encoding/json would merge the two, so such a body is
// decoded whole. doc is the member the system decodes into; it is left
// empty for whichever route follows.
func splitSystem(body []byte, doc *wfjson.Document) (sp split, ok bool) {
	*doc = wfjson.Document{}
	i := jsonscan.SkipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return sp, false
	}
	key, next, ok := jsonscan.PlainString(body, jsonscan.SkipSpace(body, i+1))
	if !ok || string(key) != "system" {
		return sp, false
	}
	if i = jsonscan.SkipSpace(body, next); i >= len(body) || body[i] != ':' {
		return sp, false
	}
	start := jsonscan.SkipSpace(body, i+1)
	end := jsonscan.ObjectEnd(body, start)
	if end < 0 {
		return sp, false
	}
	sp.span = body[start:end]
	switch i = jsonscan.SkipSpace(body, end); {
	case i < len(body) && body[i] == ',':
		// A member must follow: "{" + "}" would parse where ",}" does not.
		if next := jsonscan.SkipSpace(body, i+1); next >= len(body) || body[next] != '"' || mayNameSystem(body[i:]) {
			return sp, false
		}
		sp.rest = i
	case i < len(body) && body[i] == '}' && jsonscan.SkipSpace(body, i+1) == len(body):
		sp.rest = -1
	default:
		return sp, false
	}
	return sp, true
}

// mayNameSystem reports whether b could hold a key encoding/json matches
// to the "system" field: one with an escape or a non-ASCII byte ('ſ'
// folds onto 's'), or "ystem" in any ASCII case. A value that merely
// contains such bytes is flagged too; it only costs the body the split.
func mayNameSystem(b []byte) bool {
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '\\' || c >= 0x80:
			return true
		case c == 'y' || c == 'Y':
			if i+5 <= len(b) && bytes.EqualFold(b[i:i+5], []byte("ystem")) {
				return true
			}
		}
	}
	return false
}

// decodeRest decodes the members from body[rest] on, the remaining
// members of a split body, into dst as the object they would make with
// the comma at rest read as its opening brace. body is left as it was.
func decodeRest(body []byte, rest int, dst any) error {
	if rest < 0 {
		return nil
	}
	body[rest] = '{'
	err := decodeStrict(body[rest:], nil, dst)
	body[rest] = ','
	return err
}

// decodeStrict parses the JSON value in b into dst. readErr is what
// reading the body ended with after b; the decoder meets it where the
// stream did, so a value cut short by the body limit is reported as the
// limit, not as a syntax error.
func decodeStrict(b []byte, readErr error, dst any) error {
	var src io.Reader = bytes.NewReader(b)
	if readErr != nil {
		src = io.MultiReader(src, failedReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		// An over-limit body is not a malformed one: report it as 413
		// payload_too_large (via decodeStatus), never a generic 400 —
		// the client's remedy (shrink or split the payload) is entirely
		// different from fixing broken JSON.
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return wfmserr.New(wfmserr.CodePayloadTooLarge, "server",
				"request body exceeds the %d-byte limit", maxErr.Limit)
		}
		return fmt.Errorf("parsing request: %w", err)
	}
	if jsonscan.SkipSpace(b, int(dec.InputOffset())) != len(b) {
		return errors.New("parsing request: trailing data after JSON document")
	}
	return nil
}

// failedReader is the end of a stream that failed with err.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// decodeStatus maps a decodeBody error onto its HTTP status: an
// over-limit body is 413 Payload Too Large, everything else a 400.
func decodeStatus(err error) int {
	if wfmserr.CodeOf(err) == wfmserr.CodePayloadTooLarge {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
