package performability

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"performa/internal/avail"
	"performa/internal/perf"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// typeSpec is one server type of a generated environment.
type typeSpec struct {
	load            float64 // requests per workflow instance
	service         float64 // mean service time (exponential)
	failure, repair float64
}

// buildAnalysis makes a one-activity workflow arriving at rate 1 over
// the given server types.
func buildAnalysis(t *testing.T, types []typeSpec) *perf.Analysis {
	t.Helper()
	sts := make([]spec.ServerType, len(types))
	load := make(map[string]float64)
	for x, ts := range types {
		b, b2 := spec.ExpServiceMoments(ts.service)
		name := fmt.Sprintf("t%d", x)
		sts[x] = spec.ServerType{
			Name: name, Kind: spec.Application,
			MeanService: b, ServiceSecondMoment: b2,
			FailureRate: ts.failure, RepairRate: ts.repair,
		}
		if ts.load > 0 {
			load[name] = ts.load
		}
	}
	env, err := spec.NewEnvironment(sts...)
	if err != nil {
		t.Fatal(err)
	}
	chart := statechart.NewBuilder("wf").
		Initial("init").
		Activity("A", "act").
		Final("done").
		Transition("init", "A", 1).
		Transition("A", "done", 1).
		MustBuild()
	w := &spec.Workflow{
		Name:        "wf",
		Chart:       chart,
		Profiles:    map[string]spec.ActivityProfile{"act": {Name: "act", MeanDuration: 10, Load: load}},
		ArrivalRate: 1,
	}
	m, err := spec.Build(w, env)
	if err != nil {
		t.Fatal(err)
	}
	a, err := perf.NewAnalysis(env, []*spec.Model{m})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// jointResult is what the joint enumeration computes.
type jointResult struct {
	waiting          []float64
	degradationShare float64
	states           int // joint states with positive probability
}

// jointEnumeration is the literal Section 6 sum: a mixed-radix sweep
// over every system state X ≤ Y weighted by the product of the per-type
// marginals, with the saturation policy applied per state. It shares
// nothing with the evaluator but the marginal solver and the per-state
// waiting arithmetic.
func jointEnumeration(t *testing.T, a *perf.Analysis, y []int, opts Options) jointResult {
	t.Helper()
	params, err := avail.ParamsFromEnvironment(a.Env(), y)
	if err != nil {
		t.Fatal(err)
	}
	k := len(y)
	marginals := make([][]float64, k)
	for x := range params {
		if marginals[x], err = avail.TypeMarginal(params[x], opts.Discipline); err != nil {
			t.Fatal(err)
		}
	}
	out := jointResult{waiting: make([]float64, k)}
	state := make([]int, k)
	var w []float64
	var included float64
	for {
		p := 1.0
		full := true
		for x := 0; x < k; x++ {
			p *= marginals[x][state[x]]
			full = full && state[x] == y[x]
		}
		if p > 0 {
			out.states++
			if !full {
				out.degradationShare += p
			}
			if w, err = a.DegradedWaiting(state, w); err != nil {
				t.Fatal(err)
			}
			saturated := false
			for _, wx := range w {
				saturated = saturated || math.IsInf(wx, 1)
			}
			if !(opts.Policy == ExcludeDown && saturated) {
				included += p
				for x, wx := range w {
					if opts.Policy == Penalty && math.IsInf(wx, 1) {
						wx = opts.PenaltyValue
					}
					out.waiting[x] += p * wx
				}
			}
		}
		x := 0
		for ; x < k; x++ {
			state[x]++
			if state[x] <= y[x] {
				break
			}
			state[x] = 0
		}
		if x == k {
			break
		}
	}
	if opts.Policy == ExcludeDown {
		for x := range out.waiting {
			if included == 0 {
				out.waiting[x] = math.Inf(1)
			} else {
				out.waiting[x] /= included
			}
		}
	}
	return out
}

// relClose reports |got − want| ≤ tol·|want|, with equal infinities close.
func relClose(got, want, tol float64) bool {
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		return got == want
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}

var allPolicies = []Options{
	{Policy: Strict},
	{Policy: Penalty, PenaltyValue: 50},
	{Policy: ExcludeDown},
}

// TestSeparableMatchesJointEnumeration is the property the evaluator
// rests on: over random environments the per-type reduction equals the
// joint sum to 1e-12 relative, for every policy and both disciplines.
func TestSeparableMatchesJointEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(5)
		types := make([]typeSpec, k)
		y := make([]int, k)
		for x := range types {
			y[x] = 1 + rng.Intn(6)
			// Full-up utilization between 0.05 and 1.3, so some levels
			// (sometimes every level) saturate.
			rho := 0.05 + 1.25*rng.Float64()
			service := 0.01 + rng.Float64()
			types[x] = typeSpec{
				load:    rho * float64(y[x]) / service,
				service: service,
				failure: math.Pow(10, -4*rng.Float64()),
				repair:  math.Pow(10, -2*rng.Float64()),
			}
			if rng.Intn(8) == 0 {
				types[x].failure = 0
			}
			if rng.Intn(8) == 0 {
				types[x].load = 0
			}
		}
		a := buildAnalysis(t, types)
		for _, discipline := range []avail.RepairDiscipline{avail.IndependentRepair, avail.SingleCrew} {
			for _, opts := range allPolicies {
				opts.Discipline = discipline
				label := fmt.Sprintf("trial %d Y=%v %v/%v", trial, y, opts.Policy, discipline)
				got, err := Evaluate(a, perf.Config{Replicas: y}, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := jointEnumeration(t, a, y, opts)
				for x := range want.waiting {
					if math.IsNaN(got.Waiting[x]) || !relClose(got.Waiting[x], want.waiting[x], 1e-12) {
						t.Errorf("%s: W[%d] = %v, joint enumeration %v", label, x, got.Waiting[x], want.waiting[x])
					}
				}
				if math.Abs(got.DegradationShare-want.degradationShare) > 1e-12 {
					t.Errorf("%s: degradation share %v, joint enumeration %v", label, got.DegradationShare, want.degradationShare)
				}
				if got.StatesEvaluated != want.states {
					t.Errorf("%s: %d states, joint enumeration %d", label, got.StatesEvaluated, want.states)
				}
			}
		}
	}
}

// TestZeroLoadTypeWaitsZero: a type no workflow uses waits 0 at every
// level, including j = 0 — never NaN, and its all-down level does not
// make the system non-operational.
func TestZeroLoadTypeWaitsZero(t *testing.T) {
	a := buildAnalysis(t, []typeSpec{
		{load: 0, service: 0.1, failure: 0.1, repair: 1},
		{load: 3, service: 0.1, failure: 0.01, repair: 1},
	})
	y := []int{1, 2}
	for _, opts := range allPolicies {
		got, err := Evaluate(a, perf.Config{Replicas: y}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Waiting[0] != 0 {
			t.Errorf("%v: idle type waits %v, want 0", opts.Policy, got.Waiting[0])
		}
		want := jointEnumeration(t, a, y, opts)
		if math.IsNaN(got.Waiting[1]) || !relClose(got.Waiting[1], want.waiting[1], 1e-12) {
			t.Errorf("%v: loaded type waits %v, joint enumeration %v", opts.Policy, got.Waiting[1], want.waiting[1])
		}
	}
}

// TestNeverFailingTypeIsPinned: without failures the marginal sits at
// Y_x, so the type contributes its full-up waiting time and a factor of
// one to the state count.
func TestNeverFailingTypeIsPinned(t *testing.T) {
	a := buildAnalysis(t, []typeSpec{
		{load: 4, service: 0.1, failure: 0, repair: 0},
		{load: 3, service: 0.1, failure: 0.01, repair: 1},
	})
	for _, opts := range allPolicies {
		got, err := Evaluate(a, perf.Config{Replicas: []int{3, 2}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Waiting[0] != got.FullUpWaiting[0] {
			t.Errorf("%v: never-failing type waits %v, full-up %v", opts.Policy, got.Waiting[0], got.FullUpWaiting[0])
		}
		if got.StatesEvaluated != 3 {
			t.Errorf("%v: %d states, want 3 (only the failing type's levels)", opts.Policy, got.StatesEvaluated)
		}
	}
}

// TestAlwaysSaturatedType: a type that cannot carry its load even fully
// up leaves no operational state, so ExcludeDown is +Inf everywhere;
// Strict confines the infinity to that type.
func TestAlwaysSaturatedType(t *testing.T) {
	a := buildAnalysis(t, []typeSpec{
		{load: 50, service: 0.1, failure: 0.01, repair: 1}, // ρ = 5/2 at Y = 2
		{load: 3, service: 0.1, failure: 0, repair: 0},
	})
	cfg := perf.Config{Replicas: []int{2, 2}}
	ex, err := Evaluate(a, cfg, Options{Policy: ExcludeDown})
	if err != nil {
		t.Fatal(err)
	}
	for x, w := range ex.Waiting {
		if !math.IsInf(w, 1) {
			t.Errorf("exclude-down W[%d] = %v, want +Inf", x, w)
		}
	}
	st, err := Evaluate(a, cfg, Options{Policy: Strict})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(st.Waiting[0], 1) {
		t.Errorf("strict: saturated type waits %v, want +Inf", st.Waiting[0])
	}
	if math.IsInf(st.Waiting[1], 0) || math.IsNaN(st.Waiting[1]) || st.Waiting[1] != st.FullUpWaiting[1] {
		t.Errorf("strict: other type waits %v, want its finite full-up %v", st.Waiting[1], st.FullUpWaiting[1])
	}
}

// TestJointUnderflowDoesNotReachPerTypeSums: five types that are almost
// always down (each fully up with probability ~1e-66) and stable only
// when fully up. The one operational joint state has probability
// ~1e-330, which underflows to 0, so the joint enumeration finds no
// operational state; the per-type conditional is exact: given type x is
// operational it is fully up, so W_x is its full-up waiting time.
func TestJointUnderflowDoesNotReachPerTypeSums(t *testing.T) {
	types := make([]typeSpec, 5)
	y := make([]int, len(types))
	for x := range types {
		y[x] = 6
		types[x] = typeSpec{load: 55, service: 0.1, failure: 1, repair: 1e-11} // ρ = 5.5/j
	}
	a := buildAnalysis(t, types)
	opts := Options{Policy: ExcludeDown}
	got, err := Evaluate(a, perf.Config{Replicas: y}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for x, w := range got.Waiting {
		if math.IsInf(w, 0) || math.IsNaN(w) || !relClose(w, got.FullUpWaiting[x], 1e-12) {
			t.Errorf("W[%d] = %v, want the full-up waiting time %v", x, w, got.FullUpWaiting[x])
		}
	}
	if joint := jointEnumeration(t, a, y, opts); !math.IsInf(joint.waiting[0], 1) {
		t.Errorf("joint enumeration gives %v; this case is meant to underflow there", joint.waiting[0])
	}
}
