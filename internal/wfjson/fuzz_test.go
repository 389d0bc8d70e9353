package wfjson

import (
	"bytes"
	"strings"
	"testing"
)

// decodeSeeds is FuzzDecode's seed corpus (the floor names its entries by
// position: append, do not reorder).
var decodeSeeds = []string{
	sampleDoc,
	`{`,
	`{"environment":{"types":[]},"workflows":[]}`,
	`{"environment":{"types":[{"name":"x","kind":"engine","mean_service":1}]},
	       "workflows":[{"name":"w","arrival_rate":-5,"chart":{"name":"w","initial":"i","final":"f",
	       "states":[{"name":"i"},{"name":"a","activity":"A"},{"name":"f"}],
	       "transitions":[{"from":"i","to":"a","prob":1},{"from":"a","to":"f","prob":1}]},
	       "activities":[{"name":"A","mean_duration":1}]}]}`,
	strings.Replace(sampleDoc, `"prob": 1`, `"prob": 1e308`, 1),
	strings.Replace(sampleDoc, `"mean_service": 0.0005`, `"mean_service": -1`, 1),
	strings.Replace(sampleDoc, `"initial": "init"`, `"initial": "nope"`, 1),
}

// FuzzDecode hardens the JSON entry point: arbitrary input must either
// produce a valid (environment, workflows) pair that re-encodes and
// re-decodes to an equivalent model, or a clean error — never a panic.
// The seed corpus runs in every regular `go test`; `go test -fuzz
// FuzzDecode ./internal/wfjson` explores further.
func FuzzDecode(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, doc string) {
		env, flows, err := Decode(strings.NewReader(doc))
		if err != nil {
			return // clean rejection is fine
		}
		// Anything accepted must survive a round trip.
		var buf bytes.Buffer
		if err := Encode(&buf, env, flows); err != nil {
			t.Fatalf("accepted document failed to encode: %v", err)
		}
		if _, _, err := Decode(&buf); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
