package sensitivity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fmtDescribe, fmtAttribution and fmtSummarize are the prose as fmt
// wrote it before the strconv appends; they are the definition the
// appends must match byte for byte.
func fmtDescribe(e Entry) string {
	if e.Kind == ArrivalRate {
		return fmt.Sprintf("workflow %q's %s", e.Target, nouns[e.Kind])
	}
	return fmt.Sprintf("server type %d (%q)'s %s", e.Index, e.Target, nouns[e.Kind])
}

func fmtAttribution(e Entry) string {
	if e.Method == "failed" {
		return fmt.Sprintf("%s could not be perturbed within the model's validity bounds", fmtDescribe(e))
	}
	we, ue := e.WaitingElasticity, e.UnavailabilityElasticity
	if math.IsNaN(we) && math.IsNaN(ue) {
		return fmt.Sprintf("%s has no measurable effect on the metrics", fmtDescribe(e))
	}
	if math.IsNaN(ue) || math.Abs(we) >= math.Abs(ue) {
		return fmt.Sprintf("a 1%% increase in %s changes the maximum waiting time by %+.3g%%", fmtDescribe(e), we)
	}
	return fmt.Sprintf("a 1%% increase in %s changes the unavailability by %+.3g%%", fmtDescribe(e), ue)
}

func fmtSummarize(entries []Entry) string {
	var topW, topU *Entry
	for i := range entries {
		e := &entries[i]
		if v := math.Abs(e.WaitingElasticity); !math.IsNaN(v) && !math.IsInf(v, 0) {
			if topW == nil || v > math.Abs(topW.WaitingElasticity) {
				topW = e
			}
		}
		if v := math.Abs(e.UnavailabilityElasticity); !math.IsNaN(v) && !math.IsInf(v, 0) {
			if topU == nil || v > math.Abs(topU.UnavailabilityElasticity) {
				topU = e
			}
		}
	}
	var parts []string
	if topW != nil {
		parts = append(parts, fmt.Sprintf("waiting time is dominated by %s (elasticity %+.3g)", fmtDescribe(*topW), topW.WaitingElasticity))
	}
	if topU != nil {
		parts = append(parts, fmt.Sprintf("unavailability is dominated by %s (elasticity %+.3g)", fmtDescribe(*topU), topU.UnavailabilityElasticity))
	}
	if len(parts) == 0 {
		return "no parameter has a measurable effect on the metrics"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "; " + p
	}
	return out
}

// proseFloats are the values whose %+.3g is easy to get wrong: NaN (as
// +NaN), the infinities, signed zeros, the roundings that carry into a
// new digit (9.995, 999.5) or switch to exponent form, and subnormals.
var proseFloats = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	9.995, -9.995, 9.9949999, 999.5, -999.5, 999.49, 99.95, 0.0009995, 1e-4, 1e-5, 0.00012345,
	1, -1, 0.5, 123456, 1e21, -1e21, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
}

// proseTargets are names with %q escapes: quotes, backslashes, control
// and non-ASCII characters, invalid UTF-8, the line separator.
var proseTargets = []string{"app", "", `a"b\c`, "tab\there", "ünïcödé", "\xff\xfe", " ", "日本", "x\x00y"}

// TestProseMatchesFmt pins attribution and summarize, built with strconv
// appends, to the fmt.Sprintf prose they replace, over a random grid of
// elasticities plus proseFloats, every kind, every target; and their
// number format to %+.3g on every value of the grid, NaN included, which
// neither sentence prints.
func TestProseMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := append([]float64(nil), proseFloats...)
	for range 400 {
		switch rng.Intn(3) {
		case 0:
			values = append(values, math.Float64frombits(rng.Uint64()))
		case 1:
			values = append(values, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(30)-15)))
		default:
			values = append(values, float64(rng.Intn(20001)-10000)/1000)
		}
	}
	for _, v := range values {
		if got, want := string(appendSigned(nil, v)), fmt.Sprintf("%+.3g", v); got != want {
			t.Errorf("appendSigned(%v) = %q, fmt writes %q", v, got, want)
		}
	}
	kinds := []Kind{FailureRate, RepairRate, MeanService, ServiceSecondMoment, ArrivalRate, Replicas}
	var entries []Entry
	for i := range 2000 {
		e := Entry{
			Kind:                     kinds[i%len(kinds)],
			Index:                    rng.Intn(12) - 1,
			Target:                   proseTargets[rng.Intn(len(proseTargets))],
			Method:                   []string{"central", "failed", "forward_discrete"}[rng.Intn(3)],
			WaitingElasticity:        values[rng.Intn(len(values))],
			UnavailabilityElasticity: values[rng.Intn(len(values))],
		}
		if got, want := attribution(&e), fmtAttribution(e); got != want {
			t.Errorf("attribution(%+v):\n got %q\nwant %q", e, got, want)
		}
		entries = append(entries, e)
	}
	for n := 0; n <= len(entries); n += 1 + n/2 {
		for start := 0; start+n <= len(entries); start += 97 {
			if got, want := summarize(entries[start:start+n]), fmtSummarize(entries[start:start+n]); got != want {
				t.Errorf("summarize(entries[%d:%d]):\n got %q\nwant %q", start, start+n, got, want)
			}
		}
	}
}
