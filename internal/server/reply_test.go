package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"performa/internal/jsonscan"
)

// replySource draws reply values from fuzz bytes; an exhausted source
// draws zeros.
type replySource struct{ b []byte }

func (s *replySource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// edgeFloats are the values whose encoding is easy to get wrong: the
// non-finite ones (an error as float64, a sentinel as Float), signed
// zeros, the 1e-6 and 1e21 format switches, subnormals, integers past
// 2^53.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e-6, 9.999999999999999e-7, -1e-6, 1e-7, 1e21, 9.999999999999999e20, -1e21, 1e20,
	5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
	1, -1, 0.1, 1 << 53, 1<<53 + 2, 123456789012345680, 5e-4, 1.0 / 3,
}

// float is an edge value or a float from eight bytes of raw bits.
func (s *replySource) float() float64 {
	if c := int(s.byte()); c < 2*len(edgeFloats) {
		return edgeFloats[c%len(edgeFloats)]
	}
	var u uint64
	for range 8 {
		u = u<<8 | uint64(s.byte())
	}
	return math.Float64frombits(u)
}

func (s *replySource) flag() bool { return s.byte()&1 == 1 }

func (s *replySource) int() int { return int(int16(uint16(s.byte())<<8 | uint16(s.byte()))) }

func (s *replySource) uint() uint64 {
	if s.flag() {
		return 0
	}
	return uint64(s.byte())<<56 | uint64(s.byte())
}

// str is up to 15 raw fuzz bytes: any string, valid UTF-8 or not.
func (s *replySource) str() string {
	n := min(int(s.byte()%16), len(s.b))
	out := string(s.b[:n])
	s.b = s.b[n:]
	return out
}

// length is -1 for a nil slice, else the length of a possibly empty one.
func (s *replySource) length() int { return int(s.byte()%6) - 1 }

func sliceOf[T any](s *replySource, elem func() T) []T {
	n := s.length()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (s *replySource) floats() []Float {
	return sliceOf(s, func() Float { return Float(s.float()) })
}

func (s *replySource) assessment() AssessmentJSON {
	return AssessmentJSON{
		Config: sliceOf(s, s.int), Feasible: s.flag(), PerfOK: s.flag(), AvailOK: s.flag(),
		Waiting: s.floats(), FullUpWaiting: s.floats(), MaxWaiting: Float(s.float()),
		Availability: s.float(), Unavailability: s.float(), DegradationShare: s.float(),
		WorkflowDelays: s.floats(),
	}
}

func (s *replySource) assessmentPtr() *AssessmentJSON {
	if s.flag() {
		return nil
	}
	a := s.assessment()
	return &a
}

func (s *replySource) entry() SensitivityEntryJSON {
	return SensitivityEntryJSON{
		Kind: s.str(), Index: s.int(), Target: s.str(), Value: Float(s.float()),
		DMaxWaiting: Float(s.float()), DUnavailability: Float(s.float()), DWorkflowDelays: s.floats(),
		WaitingElasticity: Float(s.float()), UnavailabilityElasticity: Float(s.float()),
		Rank: Float(s.float()), Method: s.str(), Step: Float(s.float()), Attribution: s.str(),
	}
}

func (s *replySource) score() ScoreJSON {
	return ScoreJSON{
		Transition: Float(s.float()), Residence: Float(s.float()), Service: Float(s.float()), Arrival: Float(s.float()),
		Top: sliceOf(s, func() ContributionJSON {
			return ContributionJSON{Dimension: s.str(), Parameter: s.str(), Baseline: Float(s.float()), Observed: Float(s.float()), Change: Float(s.float())}
		}),
	}
}

func (s *replySource) advisory() AdvisoryJSON {
	return AdvisoryJSON{
		ID: s.uint(), Fingerprint: s.str(), Generation: s.uint(), Trigger: s.score(),
		OldConfig: sliceOf(s, s.int), OldAssessment: s.assessmentPtr(),
		NewConfig: sliceOf(s, s.int), NewAssessment: s.assessmentPtr(),
		DeltaMaxWaiting: Float(s.float()), DeltaUnavailability: Float(s.float()),
		Justification: s.str(), TopFactors: sliceOf(s, s.entry),
		PlannerError: s.str(), PlannerCode: s.str(), Evaluations: s.int(),
		LatencyMS: s.float(), UnixMS: int64(s.uint()) - 1<<40,
	}
}

// replies draws one value of every appended type.
func (s *replySource) replies() []appender {
	assess := AssessResponse{Fingerprint: s.str(), ServerTypes: sliceOf(s, s.str), Assessment: s.assessment(), CacheWarm: s.flag()}
	recommend := &RecommendResponse{
		Fingerprint: s.str(), Planner: s.str(), ServerTypes: sliceOf(s, s.str), Config: sliceOf(s, s.int),
		Cost: s.int(), Evaluations: s.int(), Assessment: s.assessment(),
		Trace: sliceOf(s, func() TraceStepJSON {
			return TraceStepJSON{Config: sliceOf(s, s.int), MaxWaiting: Float(s.float()), Unavailability: s.float(),
				AddedType: s.int(), RemovedType: s.int(), Reason: s.str()}
		}),
		CacheWarm: s.flag(), ElapsedMS: s.float(),
	}
	sensitivity := SensitivityResponse{
		Fingerprint: s.str(), ServerTypes: sliceOf(s, s.str), Config: sliceOf(s, s.int),
		BaseMaxWaiting: Float(s.float()), BaseUnavailability: Float(s.float()), BaseWorkflowDelays: s.floats(),
		Entries: sliceOf(s, s.entry), Summary: s.str(), ElapsedMS: s.float(),
	}
	events := EventsResponse{
		Fingerprint: s.str(), Records: s.int(), TotalEvents: s.uint(), Dropped: s.uint(), Drift: s.score(),
		Drifted: s.flag(), Generation: s.uint(), Invalidated: s.flag(), Invalidations: s.uint(), Evicted: s.int(),
	}
	advisories := AdvisoriesResponse{Advisories: sliceOf(s, s.advisory), NextSinceID: s.uint()}
	a, e, sc, adv := s.assessment(), s.entry(), s.score(), s.advisory()
	out := []appender{assess, recommend, sensitivity, events, advisories, &a, &e, &sc, &adv}
	for i := range recommend.Trace {
		out = append(out, &recommend.Trace[i])
	}
	for i := range sc.Top {
		out = append(out, &sc.Top[i])
	}
	return out
}

// checkAppended requires v's appendJSON to write json.Marshal(v)'s bytes,
// or to fail with its error.
func checkAppended(t *testing.T, v appender) {
	t.Helper()
	want, err := json.Marshal(v)
	w := jsonscan.Writer{}
	v.appendJSON(&w)
	switch {
	case (err == nil) != (w.Err == nil):
		t.Errorf("%T: json.Marshal error %v, appendJSON error %v", v, err, w.Err)
	case err != nil && err.Error() != w.Err.Error():
		t.Errorf("%T: json.Marshal error %q, appendJSON error %q", v, err, w.Err)
	case err == nil && !bytes.Equal(w.Buf, want):
		t.Errorf("%T: appendJSON wrote\n%s\njson.Marshal writes\n%s", v, w.Buf, want)
	}
}

// FuzzAppendedRepliesMatchMarshal pins every reply writeJSON appends to
// json.Marshal of the same value: floats from raw bits and the format
// edges, strings from raw bytes, nil against empty slices, nil pointers
// and zero omitempty members. The seeds run as a test.
func FuzzAppendedRepliesMatchMarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 256))
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		seed := make([]byte, 512)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range (&replySource{b: data}).replies() {
			checkAppended(t, v)
		}
	})
}
