package audit_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
	requireSameRecords(t, got, want)
}

// requireSameRecords fails unless got and want hold the same records,
// floats to the bit.
func requireSameRecords(t testing.TB, got, want []audit.Record) {
	t.Helper()
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
// encoding/json are most likely to part ways, read from
// testdata/differential_seeds.txt (the /v1/events fuzz target in
// internal/server seeds from the same file).
func differentialSeeds(tb testing.TB) []string {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "differential_seeds.txt"))
	if err != nil {
		tb.Fatal(err)
	}
	var seeds []string
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("differential_seeds.txt:%d: %v", i+1, err)
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

func TestReadRecordsMatchesEncodingJSON(t *testing.T) {
	for _, in := range differentialSeeds(t) {
		requireMatchesReference(t, []byte(in))
	}
	// Too big to be a fuzz seed: every mutation would copy 16 MiB.
	overlong := `{"kind":"a"}` + "\n" + `{"kind":"` + strings.Repeat("x", audit.MaxLineBytes) + `"}` + "\n"
	requireMatchesReference(t, []byte(overlong))
}

func FuzzReadRecordsMatchesEncodingJSON(f *testing.F) {
	for _, in := range differentialSeeds(f) {
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

// TestDecodeRecordsExtendsDst pins DecodeRecords against ReadRecords: it
// extends dst by the same records whatever dst's spare capacity holds,
// and with a limit it decodes exactly that many records and stops at the
// one past it with ErrTooManyRecords.
func TestDecodeRecordsExtendsDst(t *testing.T) {
	want, lines := epBatch(t, 2000)
	dst := make([]audit.Record, 5, 2100)
	for i := range dst[:cap(dst)] {
		dst[:cap(dst)][i] = audit.Record{Kind: "stale", Chart: "stale", Waiting: 1}
	}
	head := append([]audit.Record(nil), dst...)
	got, err := audit.DecodeRecords(dst, lines, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[:5], head) || !reflect.DeepEqual(got[5:], want) {
		t.Fatal("DecodeRecords into a used buffer differs from the buffer's head followed by ReadRecords")
	}
	if got, err := audit.DecodeRecords(nil, lines, 2000); err != nil || len(got) != 2000 {
		t.Fatalf("limit 2000 on 2,000 records: %d records, %v", len(got), err)
	}
	got, err = audit.DecodeRecords(nil, lines, 1999)
	if !errors.Is(err, audit.ErrTooManyRecords) || !reflect.DeepEqual(got, want[:1999]) {
		t.Fatalf("limit 1999 on 2,000 records: %d records, %v; want the first 1,999 and ErrTooManyRecords", len(got), err)
	}
}

// requireSplitMatchesOnePass fails unless the pieces of body that end at
// cuts, decoded on two goroutines, give what one goroutine gives over the
// whole body: the same records after dst's head when it succeeds, and a
// refusal that leaves dst's spare capacity cleared when it fails. Then
// DecodeRecords decodes on one goroutine, so its error text is the
// one-pass text. A body of one piece, or with more lines than limit or
// than one per 32 bytes, is refused before it is decoded.
func requireSplitMatchesOnePass(t testing.TB, body []byte, cuts []int, limit int) {
	t.Helper()
	want, wantErr := audit.DecodeOnePass(nil, body, limit)
	lines := bytes.Count(body, []byte{'\n'})
	if len(body) > 0 && body[len(body)-1] != '\n' {
		lines++
	}
	dst := make([]audit.Record, 1, lines+8)
	dst[0] = audit.Record{Kind: "head"}
	got, ok := audit.DecodeSplit(dst, body, cuts, limit, 2)
	switch {
	case ok && wantErr != nil:
		t.Fatalf("cuts %v, limit %d: split decoded %d records, one pass failed: %v", cuts, limit, len(got)-1, wantErr)
	case !ok && wantErr == nil && len(cuts) > 0 && lines <= (len(body)+31)/32 && (limit == 0 || lines <= limit):
		t.Fatalf("cuts %v, limit %d: split refused what one pass decodes", cuts, limit)
	case !ok:
		if dst[0].Kind != "head" || !reflect.DeepEqual(dst[1:cap(dst)], make([]audit.Record, cap(dst)-1)) {
			t.Fatalf("cuts %v: a refused split left records in dst", cuts)
		}
	default:
		if &got[0] != &dst[0] || got[0].Kind != "head" {
			t.Fatalf("cuts %v: split did not extend dst", cuts)
		}
		if len(got) > 1 || len(want) > 0 {
			requireSameRecords(t, got[1:], want)
		}
		if !reflect.DeepEqual(got[len(got):cap(got)], make([]audit.Record, cap(got)-len(got))) {
			t.Fatalf("cuts %v: split left records in the spare capacity", cuts)
		}
	}
}

// firstLines returns the first n lines of a simulated EP batch.
func firstLines(tb testing.TB, n int) []byte {
	_, lines := epBatch(tb, 2000)
	end := 0
	for range n {
		end += bytes.IndexByte(lines[end:], '\n') + 1
	}
	return lines[:end]
}

// newlineCuts returns the offsets just after body's newlines, body's end
// left out.
func newlineCuts(body []byte) []int {
	var cuts []int
	for i, c := range body[:max(len(body)-1, 0)] {
		if c == '\n' {
			cuts = append(cuts, i+1)
		}
	}
	return cuts
}

// TestDecodeRecordsSplitMatchesOnePass forces every newline cut of the
// differential seeds and of a simulated EP batch (also with blank and
// CRLF lines between its records, and without its final newline) through
// the split decode, one cut at a time and all cuts at once, with no
// record limit, a limit of the body's newlines, and half as many.
func TestDecodeRecordsSplitMatchesOnePass(t *testing.T) {
	ep := firstLines(t, 300)
	gappy := bytes.ReplaceAll(ep, []byte("}\n{\"kind\":\"state_left\""), []byte("}\r\n\n \n{\"kind\":\"state_left\""))
	bodies := [][]byte{ep, gappy, ep[:len(ep)-1]}
	for _, seed := range differentialSeeds(t) {
		bodies = append(bodies, []byte(seed))
	}
	for _, body := range bodies {
		cuts := newlineCuts(body)
		for _, limit := range []int{0, bytes.Count(body, []byte{'\n'}), max(len(cuts)/2, 1)} {
			requireSplitMatchesOnePass(t, body, nil, limit)
			requireSplitMatchesOnePass(t, body, cuts, limit)
			for _, c := range cuts {
				requireSplitMatchesOnePass(t, body, []int{c}, limit)
			}
		}
	}
}

// FuzzDecodeRecordsSplit cuts a body after the newlines picked by the
// bits of pick (bit k for the k-th newline, modulo 64) and requires the
// split decode to give what one goroutine gives under the record limit.
func FuzzDecodeRecordsSplit(f *testing.F) {
	ep := firstLines(f, 40)
	f.Add(ep, uint64(0x5555555555555555), uint16(0))
	f.Add(ep, ^uint64(0), uint16(39))
	for _, seed := range differentialSeeds(f) {
		f.Add([]byte(seed), ^uint64(0), uint16(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, pick uint64, limit uint16) {
		var cuts []int
		for k, c := range newlineCuts(body) {
			if pick>>(k%64)&1 == 1 {
				cuts = append(cuts, c)
			}
		}
		requireSplitMatchesOnePass(t, body, cuts, int(limit))
	})
}

// TestReadRecordsLineBoundary pins the line-length rule against the
// bufio.Scanner reference: lines of MaxLineBytes-1, MaxLineBytes and
// MaxLineBytes+1 bytes, each with and without a final newline, after a
// short first line.
func TestReadRecordsLineBoundary(t *testing.T) {
	for _, n := range []int{audit.MaxLineBytes - 1, audit.MaxLineBytes, audit.MaxLineBytes + 1} {
		line := `{"kind":"` + strings.Repeat("x", n-len(`{"kind":""}`)) + `"}`
		for _, end := range []string{"", "\n"} {
			requireMatchesReference(t, []byte(`{"kind":"a"}`+"\n"+line+end))
		}
	}
}
