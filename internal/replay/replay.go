// Package replay streams a recorded audit trail into a running wfmsd
// instance through POST /v1/events — the measurement half of the
// paper's online calibration loop run from the outside. A trail (from
// wfmssim -trail or a production WFMS audit log) is cut into
// batches and posted in record order, optionally paced so that trail
// time advances at a fixed multiple of wall-clock time, and the drift
// responses are folded into a summary: how many batches crossed the
// drift threshold and what the model's final drift state is.
package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"performa/internal/audit"
	"performa/internal/server"
)

// Options configures a replay.
type Options struct {
	// BaseURL is the wfmsd instance, e.g. "http://localhost:8080".
	BaseURL string
	// Fingerprint addresses the target system (as returned by
	// /v1/assess; the model must be warm before events stream in).
	Fingerprint string
	// BatchSize is the number of records per POST; 0 means 500.
	BatchSize int
	// SpeedUp paces the replay: trail time-units replayed per
	// wall-clock second. 0 replays as fast as the daemon accepts.
	SpeedUp float64
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Logf receives one progress line per threshold crossing and per
	// pacing pause; nil discards them.
	Logf func(format string, args ...any)
}

// Summary is the outcome of a replay.
type Summary struct {
	// Records and Batches count what was delivered.
	Records int
	Batches int
	// Invalidations is the stream's lifetime threshold-crossing count
	// after the last batch.
	Invalidations uint64
	// Generation is the model's rebuild generation after the last batch.
	Generation uint64
	// Drifted reports whether the stream still exceeded thresholds
	// after the last batch (true until the next /v1/assess rebuilds).
	Drifted bool
	// Final is the last batch's full /v1/events response.
	Final server.EventsResponse
}

// Replay posts the records to opts.BaseURL in order. It returns after
// the last batch, on the first non-200 response, or when ctx ends —
// whichever comes first — with the summary of everything delivered so
// far.
func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 500
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

func Replay(ctx context.Context, recs []audit.Record, opts Options) (*Summary, error) {
	opts = opts.withDefaults()
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("replay: no base URL")
	}
	if opts.Fingerprint == "" {
		return nil, fmt.Errorf("replay: no system fingerprint")
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("replay: empty trail")
	}

	sum := &Summary{}
	first := recs[0].Time
	started := time.Now()
	for off := 0; off < len(recs); off += opts.BatchSize {
		end := off + opts.BatchSize
		if end > len(recs) {
			end = len(recs)
		}
		chunk := recs[off:end]
		if opts.SpeedUp > 0 {
			// The batch is due when its first record's trail offset,
			// shrunk by the speed-up, has elapsed on the wall clock.
			due := started.Add(time.Duration((chunk[0].Time - first) / opts.SpeedUp * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				opts.Logf("pacing: waiting %s before batch %d", wait.Round(time.Millisecond), sum.Batches+1)
				timer := time.NewTimer(wait)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return sum, ctx.Err()
				}
			}
		}
		resp, err := postBatch(ctx, opts, chunk)
		if err != nil {
			return sum, err
		}
		sum.Records += len(chunk)
		sum.Batches++
		sum.Invalidations = resp.Invalidations
		sum.Generation = resp.Generation
		sum.Drifted = resp.Drifted
		sum.Final = *resp
		if resp.Invalidated {
			opts.Logf("drift threshold crossed at batch %d (%d records in): %d warm entries evicted, generation %d",
				sum.Batches, sum.Records, resp.Evicted, resp.Generation)
		}
	}
	return sum, nil
}

// postBatch delivers one chunk as JSON lines and decodes the drift
// response.
func postBatch(ctx context.Context, opts Options, recs []audit.Record) (*server.EventsResponse, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return nil, fmt.Errorf("replay: encoding record: %w", err)
		}
	}
	u := opts.BaseURL + "/v1/events?fingerprint=" + url.QueryEscape(opts.Fingerprint)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var fail server.ErrorResponse
		if json.Unmarshal(raw, &fail) == nil && fail.Error != "" {
			return nil, fmt.Errorf("replay: %s: %s (%s)", resp.Status, fail.Error, fail.Code)
		}
		return nil, fmt.Errorf("replay: %s: %s", resp.Status, raw)
	}
	var out server.EventsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("replay: decoding response: %w", err)
	}
	return &out, nil
}
