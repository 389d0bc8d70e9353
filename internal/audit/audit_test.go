package audit

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func sampleTrail() *Trail {
	t := NewTrail()
	t.Append(Record{Kind: StateEntered, Time: 2, Workflow: "EP", Instance: 1, Chart: "EP", State: "NewOrder"})
	t.Append(Record{Kind: InstanceStarted, Time: 1, Workflow: "EP", Instance: 1})
	t.Append(Record{Kind: ServiceRequest, Time: 3, ServerType: "orb", Server: 0, Waiting: 0.5, Service: 0.1})
	t.Append(Record{Kind: InstanceCompleted, Time: 9, Workflow: "EP", Instance: 1})
	return t
}

func TestRecordsSortedByTime(t *testing.T) {
	tr := sampleTrail()
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("len = %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Errorf("records out of order at %d", i)
		}
	}
	if recs[0].Kind != InstanceStarted {
		t.Errorf("first record = %v", recs[0].Kind)
	}
}

func TestFilter(t *testing.T) {
	tr := sampleTrail()
	svc := tr.Filter(ServiceRequest)
	if len(svc) != 1 || svc[0].ServerType != "orb" {
		t.Errorf("Filter = %+v", svc)
	}
	if got := tr.Filter("nonexistent"); len(got) != 0 {
		t.Errorf("Filter(nonexistent) = %v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrail()
	var buf bytes.Buffer
	if err := tr.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("wrote %d lines", lines)
	}
	back, err := ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Records(), back.Records()) {
		t.Error("round trip lost data")
	}
}

func TestReadJSONLinesSkipsBlank(t *testing.T) {
	in := `{"kind":"instance_started","time":1}` + "\n\n" + `{"kind":"instance_completed","time":2}` + "\n"
	tr, err := ReadJSONLines(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestReadJSONLinesBadInput(t *testing.T) {
	_, err := ReadJSONLines(strings.NewReader("not json\n"))
	if err == nil {
		t.Fatal("bad input accepted")
	}
	if !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), `"not json"`) {
		t.Errorf("error should name the line and its content, got: %v", err)
	}
}

func TestReadJSONLinesWhitespaceOnlyLines(t *testing.T) {
	// Whitespace-only lines (spaces, tabs, CR from CRLF files) must be
	// skipped like empty lines, not fail the whole parse.
	in := `{"kind":"instance_started","time":1}` + "\r\n" +
		"   \t \n" +
		`{"kind":"instance_completed","time":2}` + "\r\n"
	tr, err := ReadJSONLines(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestReadJSONLinesOverlongLine(t *testing.T) {
	// A line beyond MaxLineBytes aborts with a line-numbered error
	// rather than a silent truncation or an unbounded allocation.
	var b strings.Builder
	b.WriteString(`{"kind":"instance_started","time":1}` + "\n")
	b.WriteString(`{"kind":"service_request","workflow":"`)
	b.WriteString(strings.Repeat("x", MaxLineBytes))
	b.WriteString(`"}` + "\n")
	_, err := ReadJSONLines(strings.NewReader(b.String()))
	if err == nil {
		t.Fatal("overlong line accepted")
	}
	if !strings.Contains(err.Error(), "after line 1") {
		t.Errorf("error should locate the overlong line, got: %v", err)
	}
}

func TestReadJSONLinesErrorTruncatesContent(t *testing.T) {
	long := strings.Repeat("z", 4096) + "{"
	_, err := ReadJSONLines(strings.NewReader(long + "\n"))
	if err == nil {
		t.Fatal("bad input accepted")
	}
	if len(err.Error()) > 512 {
		t.Errorf("error message not truncated: %d bytes", len(err.Error()))
	}
	if !strings.Contains(err.Error(), "4097 bytes") {
		t.Errorf("error should report the line length, got: %v", err)
	}
}

func TestRecordsOutOfOrderThenSorted(t *testing.T) {
	tr := NewTrail()
	for i := 9; i >= 0; i-- {
		tr.Append(Record{Kind: ServiceRequest, Time: float64(i), Server: i})
	}
	recs := tr.Records()
	for i := range recs {
		if recs[i].Time != float64(i) {
			t.Fatalf("recs[%d].Time = %v, want %d", i, recs[i].Time, i)
		}
	}
	// A subsequent in-order append keeps the trail sorted without work.
	tr.Append(Record{Kind: ServiceRequest, Time: 100})
	if got := tr.Records(); got[len(got)-1].Time != 100 {
		t.Errorf("last = %v", got[len(got)-1].Time)
	}
}

func TestEqualTimestampStability(t *testing.T) {
	// Equal timestamps must keep append order (stable sort), even when
	// an out-of-order record forces a sort.
	tr := NewTrail()
	for i := 0; i < 5; i++ {
		tr.Append(Record{Kind: StateEntered, Time: 5, Server: i})
	}
	tr.Append(Record{Kind: InstanceStarted, Time: 1}) // forces sort
	recs := tr.Records()
	if recs[0].Kind != InstanceStarted {
		t.Fatalf("first record = %v", recs[0].Kind)
	}
	for i := 0; i < 5; i++ {
		if recs[i+1].Server != i {
			t.Errorf("equal-timestamp order broken at %d: got server %d", i, recs[i+1].Server)
		}
	}
}

func TestAppendBatchRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: InstanceStarted, Time: 3, Instance: 2},
		{Kind: InstanceStarted, Time: 1, Instance: 1},
		{Kind: InstanceCompleted, Time: 2, Instance: 1},
	}
	tr := NewTrail()
	tr.AppendBatch(recs)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Records(), back.Records()) {
		t.Error("round trip lost data")
	}
	if got := back.Records(); got[0].Instance != 1 || got[2].Instance != 2 {
		t.Errorf("order after round trip: %+v", got)
	}
}

func FuzzReadJSONLines(f *testing.F) {
	f.Add(`{"kind":"instance_started","time":1,"workflow":"EP","instance":7}`)
	f.Add("{\"kind\":\"state_entered\",\"time\":2.5,\"chart\":\"EP\",\"state\":\"A\"}\n\n{\"kind\":\"state_left\",\"time\":3,\"chart\":\"EP\",\"state\":\"A\"}")
	f.Add("  \t\r\n{\"kind\":\"service_request\",\"time\":1e308,\"server_type\":\"orb\",\"waiting\":0.5,\"service\":0.1}\r\n")
	f.Add(`{"kind":"instance_completed","time":-1}`)
	f.Add("not json at all")
	f.Add(`{"kind":"service_request","time":NaN}`)
	f.Add("{}\n{}\n{}")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadJSONLines(strings.NewReader(in))
		if err != nil {
			return
		}
		// Whatever parsed must re-encode and re-parse to the same records.
		var buf bytes.Buffer
		if err := tr.WriteJSONLines(&buf); err != nil {
			t.Fatalf("re-encoding parsed trail: %v", err)
		}
		back, err := ReadJSONLines(&buf)
		if err != nil {
			t.Fatalf("re-parsing encoded trail: %v", err)
		}
		if a, b := tr.Records(), back.Records(); !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip diverged: %d vs %d records", len(a), len(b))
		}
	})
}

func TestConcurrentAppend(t *testing.T) {
	tr := NewTrail()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Append(Record{Kind: ServiceRequest, Time: float64(g*100 + i)})
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Errorf("Len = %d, want 800", tr.Len())
	}
}

// TestTrailMatchesSliceReference drives a trail across chunk boundaries
// with single appends, batches larger than a chunk, out-of-order times
// and reads in between, and checks every read against a stable sort of
// the records appended so far.
func TestTrailMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTrail()
	// A read sorts; the next append is then compared with the latest
	// time, not with the record appended last.
	ref := []Record{{Time: 5}, {Time: 3}}
	tr.AppendBatch(ref)
	tr.Records()
	ref = append(ref, Record{Time: 4})
	tr.Append(ref[2])
	if got := tr.Records(); got[1].Time != 4 || got[2].Time != 5 {
		t.Fatalf("times after a sort and an append: %v, %v, %v", got[0].Time, got[1].Time, got[2].Time)
	}
	next := func() Record {
		r := Record{Kind: ServiceRequest, Time: float64(rng.Intn(50) + len(ref)/2), Server: len(ref)}
		if rng.Intn(4) == 0 {
			r.Kind = StateEntered
		}
		return r
	}
	for step := 0; step < 30; step++ {
		switch rng.Intn(3) {
		case 0:
			for i := rng.Intn(2 * trailChunk); i > 0; i-- {
				r := next()
				ref = append(ref, r)
				tr.Append(r)
			}
		case 1:
			batch := make([]Record, rng.Intn(2*trailChunk))
			for i := range batch {
				batch[i] = next()
			}
			ref = append(ref, batch...)
			tr.AppendBatch(batch)
		default:
			want := append([]Record(nil), ref...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
			if got := tr.Records(); tr.Len() != len(ref) || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %d records (Len %d), want %d in stable time order", step, len(got), tr.Len(), len(want))
			}
			var states []Record
			for _, r := range want {
				if r.Kind == StateEntered {
					states = append(states, r)
				}
			}
			if got := tr.Filter(StateEntered); !reflect.DeepEqual(got, states) {
				t.Fatalf("step %d: Filter returned %d records, want %d", step, len(got), len(states))
			}
		}
	}
}
