package avail

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"performa/internal/ctmc"
)

// paperParams returns the Section 5.2 worked example: communication
// server failing monthly, workflow engine weekly, application server
// daily; 10-minute repairs. Time unit: minutes.
func paperParams(y1, y2, y3 int) []TypeParams {
	return []TypeParams{
		{Replicas: y1, FailureRate: 1.0 / 43200, RepairRate: 1.0 / 10},
		{Replicas: y2, FailureRate: 1.0 / 10080, RepairRate: 1.0 / 10},
		{Replicas: y3, FailureRate: 1.0 / 1440, RepairRate: 1.0 / 10},
	}
}

func TestPaperExampleNoReplication(t *testing.T) {
	// "The CTMC analysis computes an expected downtime of 71 hours per
	// year if there is only one server of each server type."
	rep, err := Evaluate(paperParams(1, 1, 1), IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DowntimeHoursPerYear < 70 || rep.DowntimeHoursPerYear > 72 {
		t.Errorf("downtime = %.2f h/yr, paper says 71", rep.DowntimeHoursPerYear)
	}
}

func TestPaperExampleThreeWayReplication(t *testing.T) {
	// "By 3-way replication of each server type, the system downtime
	// can be brought down to 10 seconds per year."
	rep, err := Evaluate(paperParams(3, 3, 3), IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.DowntimeSecondsPerYear(); s < 9 || s > 11.5 {
		t.Errorf("downtime = %.2f s/yr, paper says 10", s)
	}
}

func TestPaperExampleAsymmetricReplication(t *testing.T) {
	// "replicating the most unreliable server type three times and
	// having two replicas of each of the other two is already
	// sufficient to bound the unavailability by less than a minute."
	rep, err := Evaluate(paperParams(2, 2, 3), IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.DowntimeSecondsPerYear(); s >= 60 {
		t.Errorf("downtime = %.2f s/yr, paper says < 1 minute", s)
	}
	// And it really needs the 3-way replication of the app server:
	// (2,2,2) must be worse than a minute.
	rep222, err := Evaluate(paperParams(2, 2, 2), IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep222.DowntimeSecondsPerYear(); s <= 60 {
		t.Errorf("(2,2,2) downtime = %.2f s/yr; expected above a minute", s)
	}
}

func TestTypeMarginalBinomial(t *testing.T) {
	p := TypeParams{Replicas: 3, FailureRate: 0.2, RepairRate: 0.8}
	m, err := TypeMarginal(p, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	up := 0.8 / (0.2 + 0.8)
	for j := 0; j <= 3; j++ {
		want := binom(3, j) * math.Pow(up, float64(j)) * math.Pow(1-up, float64(3-j))
		if math.Abs(m[j]-want) > 1e-12 {
			t.Errorf("P(X=%d) = %v, want %v", j, m[j], want)
		}
	}
	if math.Abs(m.Sum()-1) > 1e-12 {
		t.Errorf("marginal sums to %v", m.Sum())
	}
}

func TestTypeMarginalSingleCrewSingleServerMatchesIndependent(t *testing.T) {
	p := TypeParams{Replicas: 1, FailureRate: 0.3, RepairRate: 1.5}
	ind, err := TypeMarginal(p, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := TypeMarginal(p, SingleCrew)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ind {
		if math.Abs(ind[j]-sc[j]) > 1e-12 {
			t.Errorf("Y=1 disciplines differ at %d: %v vs %v", j, ind[j], sc[j])
		}
	}
}

func TestTypeMarginalSingleCrewWorse(t *testing.T) {
	p := TypeParams{Replicas: 3, FailureRate: 0.5, RepairRate: 1}
	ind, err := TypeMarginal(p, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := TypeMarginal(p, SingleCrew)
	if err != nil {
		t.Fatal(err)
	}
	if sc[0] <= ind[0] {
		t.Errorf("single crew P(down) = %v should exceed independent %v", sc[0], ind[0])
	}
}

func TestTypeMarginalNeverFails(t *testing.T) {
	m, err := TypeMarginal(TypeParams{Replicas: 2}, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if m[2] != 1 || m[0] != 0 || m[1] != 0 {
		t.Errorf("marginal = %v, want all mass at 2", m)
	}
}

func TestTypeMarginalZeroReplicas(t *testing.T) {
	m, err := TypeMarginal(TypeParams{Replicas: 0, FailureRate: 1, RepairRate: 1}, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 1 {
		t.Errorf("marginal = %v", m)
	}
}

func TestTypeMarginalValidation(t *testing.T) {
	cases := []TypeParams{
		{Replicas: -1},
		{Replicas: 1, FailureRate: -1},
		{Replicas: 1, FailureRate: 1, RepairRate: 0},
		{Replicas: 1, FailureRate: 1, RepairRate: 1, RepairStages: -1},
	}
	for i, p := range cases {
		if _, err := TypeMarginal(p, IndependentRepair); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Erlang stages with independent repair are rejected.
	p := TypeParams{Replicas: 2, FailureRate: 1, RepairRate: 1, RepairStages: 3}
	if _, err := TypeMarginal(p, IndependentRepair); err == nil {
		t.Error("Erlang with independent repair accepted")
	}
}

func TestErlangOneStageMatchesExponential(t *testing.T) {
	base := TypeParams{Replicas: 2, FailureRate: 0.4, RepairRate: 2}
	exp, err := TypeMarginal(base, SingleCrew)
	if err != nil {
		t.Fatal(err)
	}
	base.RepairStages = 1
	one, err := TypeMarginal(base, SingleCrew)
	if err != nil {
		t.Fatal(err)
	}
	for j := range exp {
		if math.Abs(exp[j]-one[j]) > 1e-12 {
			t.Errorf("stage-1 differs at %d: %v vs %v", j, exp[j], one[j])
		}
	}
}

func TestErlangSingleServerInsensitivity(t *testing.T) {
	// For a single alternating up/down server, availability depends
	// only on the mean repair time, not its distribution:
	// P(up) = MTTF / (MTTF + MTTR) for any Erlang stage count.
	for _, k := range []int{2, 3, 8} {
		p := TypeParams{Replicas: 1, FailureRate: 0.2, RepairRate: 0.9, RepairStages: k}
		m, err := TypeMarginal(p, SingleCrew)
		if err != nil {
			t.Fatal(err)
		}
		want := (1 / 0.9) / (1/0.2 + 1/0.9) // MTTR / (MTTF + MTTR)
		if math.Abs(m[0]-want) > 1e-9 {
			t.Errorf("k=%d: P(down) = %v, want %v", k, m[0], want)
		}
	}
}

func TestErlangMultiServerDiffersFromExponential(t *testing.T) {
	// With multiple servers the repair-time shape matters: lower
	// variance (more stages) changes P(all down).
	exp := TypeParams{Replicas: 2, FailureRate: 0.5, RepairRate: 1}
	erl := TypeParams{Replicas: 2, FailureRate: 0.5, RepairRate: 1, RepairStages: 5}
	me, err := TypeMarginal(exp, SingleCrew)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := TypeMarginal(erl, SingleCrew)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(me[0]-mk[0]) < 1e-9 {
		t.Errorf("Erlang-5 P(down) = %v identical to exponential %v; shape should matter with 2 servers", mk[0], me[0])
	}
}

func TestExactMatchesProductForm(t *testing.T) {
	for _, disc := range []RepairDiscipline{IndependentRepair, SingleCrew} {
		params := []TypeParams{
			{Replicas: 2, FailureRate: 0.1, RepairRate: 1},
			{Replicas: 1, FailureRate: 0.05, RepairRate: 0.5},
			{Replicas: 3, FailureRate: 0.2, RepairRate: 2},
		}
		exact, err := Evaluate(params, disc)
		if err != nil {
			t.Fatalf("%v exact: %v", disc, err)
		}
		pf, err := EvaluateProductForm(params, disc, true)
		if err != nil {
			t.Fatalf("%v product form: %v", disc, err)
		}
		if math.Abs(exact.Availability-pf.Availability) > 1e-9 {
			t.Errorf("%v: availability exact %v vs product %v", disc, exact.Availability, pf.Availability)
		}
		for code := range exact.StateProbs {
			if math.Abs(exact.StateProbs[code]-pf.StateProbs[code]) > 1e-9 {
				t.Errorf("%v: state %d prob exact %v vs product %v",
					disc, code, exact.StateProbs[code], pf.StateProbs[code])
			}
		}
	}
}

func TestEvaluateFrozenType(t *testing.T) {
	params := []TypeParams{
		{Replicas: 2, FailureRate: 0, RepairRate: 0}, // never fails
		{Replicas: 1, FailureRate: 0.1, RepairRate: 1},
	}
	rep, err := Evaluate(params, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TypeMarginals[0][2] != 1 {
		t.Errorf("frozen type marginal = %v", rep.TypeMarginals[0])
	}
	want := 1 - 0.1/1.1
	if math.Abs(rep.Availability-want) > 1e-9 {
		t.Errorf("availability = %v, want %v", rep.Availability, want)
	}
}

func TestEvaluateZeroReplicasMeansDown(t *testing.T) {
	params := []TypeParams{
		{Replicas: 0, FailureRate: 0.1, RepairRate: 1},
		{Replicas: 1, FailureRate: 0.1, RepairRate: 1},
	}
	rep, err := Evaluate(params, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Availability != 0 {
		t.Errorf("availability = %v, want 0 with a zero-replica type", rep.Availability)
	}
}

func TestEvaluateAllFrozen(t *testing.T) {
	params := []TypeParams{{Replicas: 1}, {Replicas: 2}}
	rep, err := Evaluate(params, IndependentRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Availability != 1 {
		t.Errorf("availability = %v, want 1", rep.Availability)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := Evaluate(nil, IndependentRepair); err == nil {
		t.Error("empty params accepted")
	}
	if _, err := EvaluateProductForm(nil, IndependentRepair, false); err == nil {
		t.Error("empty params accepted by product form")
	}
}

func TestNewModelRejectsErlang(t *testing.T) {
	params := []TypeParams{{Replicas: 1, FailureRate: 1, RepairRate: 1, RepairStages: 2}}
	if _, err := NewModelWithSolver(params, SingleCrew, ctmc.SolverAuto); err == nil {
		t.Error("joint model accepted Erlang stages")
	}
}

func TestProductFormWithoutJoint(t *testing.T) {
	rep, err := EvaluateProductForm(paperParams(2, 2, 2), IndependentRepair, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StateProbs != nil || rep.Encoder != nil {
		t.Error("joint distribution built despite buildJoint=false")
	}
	if rep.Availability <= 0 || rep.Availability >= 1 {
		t.Errorf("availability = %v", rep.Availability)
	}
}

func TestReplicationMonotonicity(t *testing.T) {
	prev := math.Inf(1)
	for y := 1; y <= 4; y++ {
		rep, err := EvaluateProductForm(paperParams(y, y, y), IndependentRepair, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Unavailability >= prev {
			t.Errorf("unavailability at Y=%d is %v, not below %v", y, rep.Unavailability, prev)
		}
		prev = rep.Unavailability
	}
}

func TestDisciplineString(t *testing.T) {
	if IndependentRepair.String() != "independent-repair" || SingleCrew.String() != "single-crew" {
		t.Error("discipline strings wrong")
	}
	if got := RepairDiscipline(7).String(); got == "" {
		t.Error("unknown discipline empty")
	}
}

func TestQuickExactMatchesProductFormRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		params := make([]TypeParams, k)
		for x := range params {
			params[x] = TypeParams{
				Replicas:    1 + rng.Intn(3),
				FailureRate: 0.01 + rng.Float64(),
				RepairRate:  0.1 + rng.Float64()*3,
			}
		}
		disc := IndependentRepair
		if rng.Intn(2) == 1 {
			disc = SingleCrew
		}
		exact, err := Evaluate(params, disc)
		if err != nil {
			return false
		}
		pf, err := EvaluateProductForm(params, disc, false)
		if err != nil {
			return false
		}
		return math.Abs(exact.Availability-pf.Availability) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickMarginalsAreDistributions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := TypeParams{
			Replicas:    rng.Intn(5),
			FailureRate: rng.Float64(),
			RepairRate:  0.1 + rng.Float64(),
		}
		if p.FailureRate == 0 {
			p.RepairRate = 0
		}
		disc := IndependentRepair
		if rng.Intn(2) == 1 {
			disc = SingleCrew
			p.RepairStages = rng.Intn(4)
		}
		m, err := TypeMarginal(p, disc)
		if err != nil {
			return false
		}
		if math.Abs(m.Sum()-1) > 1e-9 {
			return false
		}
		for _, v := range m {
			if v < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
