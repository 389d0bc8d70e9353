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
// system is dst's top-level "system" member when that is a document (nil
// for the batch requests, which nest theirs). A body that starts with
// that member, holding a document in the dialect wfjson.ParseDocument
// accepts — what every client marshalling these request types sends — is
// decoded in two parts: the document by the parser, straight from the
// body, and the remaining members by encoding/json as an object of their
// own. Any other body, and any body whose remaining members encoding/json
// rejects, goes through encoding/json whole, so which route a body takes
// changes nothing a client can see.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, system *wfjson.Document) error {
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// One allocation for an ordinary body; a declared length is only a
		// claim, so a large one still has to arrive to be allocated.
		buf.Grow(int(min(r.ContentLength, 64<<10)) + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	body := buf.Bytes()

	if system != nil && readErr == nil && !s.noBodySplit {
		if at, ok := splitSystem(body, system); ok {
			// body[at] is the comma or the byte before the closing brace:
			// as '{' it opens the object of the remaining members.
			was := body[at]
			body[at] = '{'
			if decodeStrict(body[at:], nil, dst) == nil {
				return nil
			}
			body[at] = was
		}
		*system = wfjson.Document{}
	}
	return decodeStrict(body, readErr, dst)
}

// splitSystem recognises a body whose first member is "system", spelled
// exactly, with a value wfjson.ParseDocument accepts, and decodes that
// value into doc. at is where the remaining members start: the index of
// the comma after the document or, when the document is the only member,
// of the byte before the object's closing brace. Later members are not
// looked at; a second "system" among them reaches encoding/json with doc
// already in place, which is the order a whole-body decode works in.
func splitSystem(body []byte, doc *wfjson.Document) (at int, ok bool) {
	i := jsonscan.SkipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return 0, false
	}
	key, next, ok := jsonscan.PlainString(body, jsonscan.SkipSpace(body, i+1))
	if !ok || string(key) != "system" {
		return 0, false
	}
	if i = jsonscan.SkipSpace(body, next); i >= len(body) || body[i] != ':' {
		return 0, false
	}
	i++
	n, ok := wfjson.ParseDocument(body[i:], doc)
	if !ok {
		return 0, false
	}
	if i = jsonscan.SkipSpace(body, i+n); i < len(body) {
		switch body[i] {
		case ',':
			// A member must follow: "{" + "}" would parse where ",}" does not.
			if next := jsonscan.SkipSpace(body, i+1); next < len(body) && body[next] == '"' {
				return i, true
			}
		case '}':
			return i - 1, true
		}
	}
	return 0, false
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
