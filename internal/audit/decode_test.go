package audit_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"performa/internal/audit"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/workload"
)

// referenceReadRecords is ReadRecords as it was before the one-pass
// decoder: the same scanner, every line through json.Unmarshal. It is
// the oracle — encoding/json defines what a line means.
func referenceReadRecords(r io.Reader) ([]audit.Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), audit.MaxLineBytes)
	line := 0
	var out []audit.Record
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var rec audit.Record
		if err := json.Unmarshal(b, &rec); err != nil {
			content := fmt.Sprintf("%q", b)
			if len(b) > 120 {
				content = fmt.Sprintf("%q... (%d bytes)", b[:120], len(b))
			}
			return nil, fmt.Errorf("audit: line %d (%s): %w", line, content, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("audit: reading trail after line %d: %w", line, err)
	}
	return out, nil
}

// requireMatchesReference fails unless ReadRecords and the reference
// agree on in: the same records (floats to the bit, so -0 is not 0) or
// the same error text.
func requireMatchesReference(t *testing.T, in []byte) {
	t.Helper()
	got, gotErr := audit.ReadRecords(bytes.NewReader(in))
	want, wantErr := referenceReadRecords(bytes.NewReader(in))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error diverged\n got: %v\nwant: %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records diverged\n got: %+v\nwant: %+v", got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		for _, f := range [][2]float64{{g.Time, w.Time}, {g.Waiting, w.Waiting}, {g.Service, w.Service}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("record %d: float %v decoded as %v", i, f[1], f[0])
			}
		}
	}
}

// differentialSeeds are the lines where a hand-written decoder and
// encoding/json are most likely to part ways.
var differentialSeeds = []string{
	// What the repository's writers emit.
	`{"kind":"instance_started","time":1,"workflow":"EP","instance":7}`,
	`{"kind":"state_entered","time":2.5,"workflow":"EP","instance":7,"chart":"EP","state":"NewOrder"}`,
	`{"kind":"service_request","time":3.25e-7,"server_type":"orb","server":2,"waiting":0.5,"service":1E+2}`,
	`{"kind":"activity_started","time":4,"activity":"Prüfung ✓"}`,
	"{}\n{}\n\n{}",
	// Keys: case variants fold onto the field, the last duplicate wins.
	`{"Kind":"a","TIME":2}`,
	`{"kind":"a","kind":"b","time":1,"time":2}`,
	`{"kind":"a","Kind":"b"}`,
	`{"Kind":"a","kind":"b"}`,
	`{"instance":1,"Instance":2,"server":3,"SERVER":4}`,
	"{\"k\u017fnd\":\"folded\"}",
	// Escapes in values and keys.
	`{"kind":"\u0041"}`,
	`{"kind":"\ud83d\ude00"}`,
	`{"kind":"\ud83d"}`,
	`{"kind":"a\"b","state":"c\\d","chart":"e\/f","activity":"\n"}`,
	`{"k\u0069nd":"escaped key"}`,
	// Bytes a JSON string may not carry as they are.
	"{\"kind\":\"a\xffb\"}",
	"{\"kind\":\"\xed\xa0\x80\"}",
	"{\"ki\xffnd\":\"a\"}",
	"{\"kind\":\"a\tb\"}",
	"{\"kind\":\"a\x00b\"}",
	"{\"kind\":\"\x7f\u2028\"}",
	// null, bare and for every field.
	`null`,
	`{"kind":null,"time":null,"workflow":null,"instance":null,"chart":null,"state":null}`,
	`{"activity":null,"server_type":null,"server":null,"waiting":null,"service":null}`,
	`{"kind":"a","time":1,"kind":null,"time":null}`,
	// Unknown keys, nested values, wrong types.
	`{"kind":"a","extra":{"kind":"b","deep":[1,{"x":null}]},"more":[[],{}],"time":3}`,
	`{"kind":{"a":1}}`,
	`{"time":[1]}`,
	`{"kind":1}`,
	`{"time":"1"}`,
	`{"instance":"7"}`,
	`{"kind":true,"server":false}`,
	`[{"kind":"a"}]`,
	`"kind"`,
	`7`,
	// instance: an unsigned 64-bit integer literal and nothing else.
	`{"instance":0}`,
	`{"instance":1.0}`,
	`{"instance":1e3}`,
	`{"instance":-1}`,
	`{"instance":-0}`,
	`{"instance":18446744073709551615}`,
	`{"instance":18446744073709551616}`,
	`{"instance":007}`,
	// server: a signed integer literal.
	`{"server":-0}`,
	`{"server":-12}`,
	`{"server":1e2}`,
	`{"server":01}`,
	`{"server":1.}`,
	`{"server":1e999}`,
	`{"server":9223372036854775807}`,
	`{"server":9223372036854775808}`,
	`{"server":-9223372036854775808}`,
	`{"server":-9223372036854775809}`,
	`{"server":+1}`,
	`{"server":-}`,
	// Floats.
	`{"time":-0}`,
	`{"time":-0.0,"waiting":0e0,"service":-0E-0}`,
	`{"time":1e999}`,
	`{"time":-1e999}`,
	`{"time":1e-999}`,
	`{"time":1.7976931348623157e308,"waiting":4.9e-324,"service":0.1}`,
	`{"time":1.}`,
	`{"time":.5}`,
	`{"time":1e}`,
	`{"time":1e+}`,
	`{"time":0x10}`,
	`{"time":1_000}`,
	`{"time":NaN}`,
	`{"time":Infinity}`,
	`{"time":123456789012345678901234567890123456789012345678901234567890}`,
	// Whitespace around every token, CRLF, blank and whitespace-only lines.
	" \t{ \"kind\" \t: \"a\" , \"time\" : 1 , \"instance\" : 2 , \"server\" : 3 } \t",
	"{\"kind\":\"a\"}\r\n{\"kind\":\"b\"}\r\n",
	"{\"kind\":\"a\"}\r\n \t \r\n\r\n{\"kind\":\"b\"}",
	"\v{\"kind\":\"a\"}\f",
	"{\"kind\"\v:\"a\"}",
	"{\"kind\":\"a\"\u00a0}",
	// Not one object per line.
	`{"kind":"a"} garbage`,
	`{"kind":"a"}{"kind":"b"}`,
	`{"kind":"a"},`,
	`{"kind":"a",}`,
	`{,"kind":"a"}`,
	`{"kind":"a" "time":1}`,
	`{"kind" "a"}`,
	`{"kind":"a"`,
	`{"kind":"a`,
	`{"kind":`,
	`{"kind"`,
	`{"`,
	`{`,
	`}`,
	`not json at all`,
	// An error on a later line names that line; a long line is truncated.
	"{\"kind\":\"a\"}\n\n{\"kind\":\"b\"}\n{\"Kind\":1}\n{\"kind\":\"c\"}",
	`{"kind":"` + strings.Repeat("z", 300) + `","time":}`,
}

func TestReadRecordsMatchesEncodingJSON(t *testing.T) {
	for _, in := range differentialSeeds {
		requireMatchesReference(t, []byte(in))
	}
	// Too big to be a fuzz seed: every mutation would copy 16 MiB.
	overlong := `{"kind":"a"}` + "\n" + `{"kind":"` + strings.Repeat("x", audit.MaxLineBytes) + `"}` + "\n"
	requireMatchesReference(t, []byte(overlong))
}

func FuzzReadRecordsMatchesEncodingJSON(f *testing.F) {
	for _, in := range differentialSeeds {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		requireMatchesReference(t, in)
	})
}

// epBatch returns the first n records of an audit trail simulated from
// the EP workflow, and the JSON lines Trail.WriteJSONLines makes of them.
func epBatch(tb testing.TB, n int) ([]audit.Record, []byte) {
	tb.Helper()
	env := workload.PaperEnvironment()
	m, err := spec.Build(workload.EPWorkflow(3), env)
	if err != nil {
		tb.Fatal(err)
	}
	full := audit.NewTrail()
	if _, err := sim.Run(sim.Params{
		Env: env, Models: []*spec.Model{m},
		Replicas: []int{3, 3, 4},
		Seed:     1, Horizon: float64(n) / 40,
		Trail: full,
	}); err != nil {
		tb.Fatal(err)
	}
	if full.Len() < n {
		tb.Fatalf("simulated trail has %d records, want %d", full.Len(), n)
	}
	batch := audit.NewTrail()
	batch.AppendBatch(full.Records()[:n])
	var buf bytes.Buffer
	if err := batch.WriteJSONLines(&buf); err != nil {
		tb.Fatal(err)
	}
	return batch.Records(), buf.Bytes()
}

// TestReadRecordsAllocationCeiling pins that what the repository's
// encoder writes is what the one-pass decoder accepts. The encoding/json
// fallback costs at least 8 allocations per record, so the day the two
// drift apart a 2,000-record batch costs 16,000, not a few dozen.
func TestReadRecordsAllocationCeiling(t *testing.T) {
	want, lines := epBatch(t, 2000)
	kinds := map[audit.EventKind]bool{}
	for _, r := range want {
		kinds[r.Kind] = true
	}
	if len(kinds) != 7 {
		t.Fatalf("batch has %d record kinds, want all 7: %v", len(kinds), kinds)
	}
	got, err := audit.ReadRecords(bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded records differ from the ones written")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := audit.ReadRecords(bytes.NewReader(lines)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("ReadRecords made %.0f allocations on a 2,000-record batch, want <= 64", allocs)
	}
}
