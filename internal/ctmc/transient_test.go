package ctmc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"performa/internal/dist"
	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

func TestFirstPassageTwoState(t *testing.T) {
	m, err := FirstPassageTimes(twoState(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0]-2.5) > 1e-12 {
		t.Errorf("m[0] = %v, want 2.5", m[0])
	}
	if m[1] != 0 {
		t.Errorf("absorbing first-passage = %v, want 0", m[1])
	}
}

func TestFirstPassageLoop(t *testing.T) {
	// s0 → s1 w.p. 1-q then back; expected passes through s0 = 1/q.
	// R = (1/q)·h0 + ((1-q)/q)·h1.
	q, h0, h1 := 0.25, 1.0, 2.0
	c := loopChain(q, h0, h1)
	r, err := MeanTurnaround(c)
	if err != nil {
		t.Fatal(err)
	}
	want := h0/q + (1-q)/q*h1
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("turnaround = %v, want %v", r, want)
	}
}

func TestFirstPassageBranch(t *testing.T) {
	// R = 1 + p*2 + (1-p)*3.
	p := 0.3
	r, err := MeanTurnaround(branchChain(p))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + p*2 + (1-p)*3
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("turnaround = %v, want %v", r, want)
	}
}

func TestFirstPassageRejectsInvalidChain(t *testing.T) {
	if _, err := FirstPassageTimes(twoState(-1)); err == nil {
		t.Error("invalid chain accepted")
	}
}

func TestExpectedVisitsTwoState(t *testing.T) {
	n, err := ExpectedVisits(twoState(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n[0]-1) > 1e-12 || n[1] != 0 {
		t.Errorf("visits = %v, want [1 0]", n)
	}
}

func TestExpectedVisitsLoop(t *testing.T) {
	// Geometric: visits(s0) = 1/q, visits(s1) = (1-q)/q.
	q := 0.2
	n, err := ExpectedVisits(loopChain(q, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n[0]-1/q) > 1e-9 {
		t.Errorf("visits(s0) = %v, want %v", n[0], 1/q)
	}
	if math.Abs(n[1]-(1-q)/q) > 1e-9 {
		t.Errorf("visits(s1) = %v, want %v", n[1], (1-q)/q)
	}
}

func TestExpectedVisitsBranch(t *testing.T) {
	p := 0.7
	n, err := ExpectedVisits(branchChain(p))
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.Vector{1, p, 1 - p, 0}
	for i := range want {
		if math.Abs(n[i]-want[i]) > 1e-9 {
			t.Errorf("visits[%d] = %v, want %v", i, n[i], want[i])
		}
	}
}

func TestSeriesMatchesExactVisits(t *testing.T) {
	chains := []*Chain{
		twoState(1),
		loopChain(0.3, 1, 2),
		branchChain(0.4),
		randomChain(rand.New(rand.NewSource(7)), 8),
	}
	for ci, c := range chains {
		exact, err := ExpectedVisits(c)
		if err != nil {
			t.Fatalf("chain %d exact: %v", ci, err)
		}
		res, err := ExpectedVisitsSeries(c, SeriesOptions{Coverage: 0.9999999})
		if err != nil {
			t.Fatalf("chain %d series: %v", ci, err)
		}
		for i := range exact {
			if math.Abs(res.Visits[i]-exact[i]) > 1e-4 {
				t.Errorf("chain %d state %d: series %v vs exact %v", ci, i, res.Visits[i], exact[i])
			}
		}
		if res.ResidualMass > 1e-7+1e-12 {
			t.Errorf("chain %d residual mass %v", ci, res.ResidualMass)
		}
	}
}

func TestSeriesTruncationUnderestimates(t *testing.T) {
	c := loopChain(0.1, 1, 1) // many loop iterations expected
	exact, err := ExpectedVisits(c)
	if err != nil {
		t.Fatal(err)
	}
	short, err := ExpectedVisitsSeries(c, SeriesOptions{ZMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	if short.Steps != 3 {
		t.Errorf("Steps = %d, want 3", short.Steps)
	}
	if short.Visits[0] >= exact[0] {
		t.Errorf("truncated series %v should underestimate exact %v", short.Visits[0], exact[0])
	}
	if short.ResidualMass <= 0 {
		t.Errorf("residual mass = %v, want positive", short.ResidualMass)
	}
}

func TestSeriesHardCap(t *testing.T) {
	c := loopChain(1e-7, 1, 1)
	if _, err := ExpectedVisitsSeries(c, SeriesOptions{Coverage: 0.999999999, HardCap: 10}); err == nil {
		t.Error("hard cap not enforced")
	}
}

// randomChain builds a random valid absorbing chain with n states.
func randomChain(rng *rand.Rand, n int) *Chain {
	c := NewChain(n)
	for i := 0; i < n-1; i++ {
		c.H[i] = 0.1 + rng.Float64()*5
		// Random weights to all other states, guaranteeing some
		// absorption mass so the chain terminates.
		weights := make([]float64, n)
		var sum float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			w := rng.Float64()
			if j == n-1 {
				w += 0.2 // ensure reachability of absorption
			}
			weights[j] = w
			sum += w
		}
		for j := 0; j < n; j++ {
			if weights[j] > 0 {
				c.AddArc(i, j, weights[j]/sum)
			}
		}
	}
	return c
}

func TestQuickSeriesAgreesWithExactOnRandomChains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		c := randomChain(rng, n)
		if err := c.Validate(); err != nil {
			return false
		}
		exact, err := ExpectedVisits(c)
		if err != nil {
			return false
		}
		res, err := ExpectedVisitsSeries(c, SeriesOptions{Coverage: 0.99999999})
		if err != nil {
			return false
		}
		for i := range exact {
			if math.Abs(res.Visits[i]-exact[i]) > 1e-4*(1+exact[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickTurnaroundEqualsVisitWeightedResidence(t *testing.T) {
	// Identity: R = Σ_i visits_i · H_i. This ties the two transient
	// analyses together.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		c := randomChain(rng, n)
		r, err := MeanTurnaround(c)
		if err != nil {
			return false
		}
		visits, err := ExpectedVisits(c)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < c.Absorbing(); i++ {
			sum += visits[i] * c.H[i]
		}
		return math.Abs(r-sum) < 1e-7*(1+r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// erlangChain returns k chained states, each with residence h: the
// turnaround is Erlang-k with mean k·h and variance k·h².
func erlangChain(k int, h float64) *Chain {
	c := NewChain(k + 1)
	for i := 0; i < k; i++ {
		c.AddArc(i, i+1, 1)
		c.H[i] = h
	}
	return c
}

func TestTurnaroundVarianceExact(t *testing.T) {
	cases := []struct {
		name  string
		chain *Chain
		want  float64
	}{
		// A single exponential state: Var = h².
		{"exponential", twoState(2.5), 2.5 * 2.5},
		// Erlang-4 of rate 1/1.5 stages: Var = 4·1.5².
		{"erlang4", erlangChain(4, 1.5), 4 * 1.5 * 1.5},
		// Branch: T = Exp(1) + S, S = Exp(2) w.p. 0.3 else Exp(3).
		// Var = 1 + Var(S) = 1 + (0.3·8 + 0.7·18) − (0.3·2 + 0.7·3)².
		{"branch", branchChain(0.3), 1 + 15 - 2.7*2.7},
	}
	for _, tc := range cases {
		v, err := TurnaroundVariance(tc.chain)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Abs(v-tc.want) > 1e-9 {
			t.Errorf("%s: variance = %v, want %v", tc.name, v, tc.want)
		}
	}
}

// With exponential residences TurnaroundAndVisits is the separate
// moment and visit solves, bit for bit.
func TestTurnaroundAndVisitsMatchesSeparateSolves(t *testing.T) {
	for _, c := range []*Chain{twoState(2.5), loopChain(0.25, 1, 2), branchChain(0.3), erlangChain(5, 0.7)} {
		mean, variance, visits, err := TurnaroundAndVisits(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantMean, wantVar, err := TurnaroundMoments(c)
		if err != nil {
			t.Fatal(err)
		}
		wantVisits, err := ExpectedVisits(c)
		if err != nil {
			t.Fatal(err)
		}
		if mean != wantMean || variance != wantVar || !slices.Equal(visits, wantVisits) {
			t.Errorf("%d states: (%v, %v, %v), separate solves (%v, %v, %v)",
				c.N(), mean, variance, visits, wantMean, wantVar, wantVisits)
		}
	}
}

// One state with an Erlang-k second moment H²(1 + 1/k) has the moments
// of the k-state stage chain, inside a retry loop as well.
func TestTurnaroundAndVisitsErlangResidence(t *testing.T) {
	const k, h = 6, 1.8
	second := func(c *Chain) linalg.Vector {
		s := linalg.NewVector(c.N())
		for i := 0; i < c.Absorbing(); i++ {
			s[i] = 2 * c.H[i] * c.H[i]
		}
		s[0] = c.H[0] * c.H[0] * (1 + 1.0/k)
		return s
	}
	// The stage chain of a retry loop whose first state is Erlang-k:
	// stages 0..k-1, then the retry state k, then s_A.
	staged := NewChain(k + 2)
	for i := 0; i < k-1; i++ {
		staged.AddArc(i, i+1, 1)
		staged.H[i] = h / k
	}
	staged.H[k-1], staged.H[k] = h/k, 2
	staged.AddArc(k-1, k, 0.75)
	staged.AddArc(k-1, k+1, 0.25)
	staged.AddArc(k, 0, 1)
	for _, tc := range []struct {
		chart, stages *Chain
	}{
		{twoState(h), erlangChain(k, h/k)},
		{loopChain(0.25, h, 2), staged},
	} {
		mean, variance, _, err := TurnaroundAndVisits(tc.chart, second(tc.chart))
		if err != nil {
			t.Fatal(err)
		}
		wantMean, wantVar, err := TurnaroundMoments(tc.stages)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-wantMean) > 1e-12*wantMean || math.Abs(variance-wantVar) > 1e-10*wantVar {
			t.Errorf("chart-level (%v, %v), stage chain (%v, %v)", mean, variance, wantMean, wantVar)
		}
	}
}

func TestTurnaroundVarianceMatchesMonteCarlo(t *testing.T) {
	c := loopChain(0.25, 1, 2)
	want, err := TurnaroundVariance(c)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := MeanTurnaround(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(7)
	const samples = 400_000
	var sum, sumSq float64
	for i := 0; i < samples; i++ {
		x, err := SampleTurnaround(c, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += x
		sumSq += x * x
	}
	mcMean := sum / samples
	mcVar := sumSq/samples - mcMean*mcMean
	if math.Abs(mcMean-mean) > 0.05*mean {
		t.Errorf("Monte Carlo mean %v vs analytic %v", mcMean, mean)
	}
	if math.Abs(mcVar-want) > 0.05*want {
		t.Errorf("Monte Carlo variance %v vs analytic %v", mcVar, want)
	}
}

func TestTurnaroundVarianceRejectsInvalidChain(t *testing.T) {
	if _, err := TurnaroundVariance(twoState(-1)); err == nil {
		t.Error("invalid chain accepted")
	}
}

// sequentialChain builds an n-state forward chain with skip arcs and
// occasional back arcs.
func sequentialChain(n int, rng *rand.Rand) *Chain {
	c := NewChain(n + 1)
	for i := 0; i < n; i++ {
		c.H[i] = 0.5 + rng.Float64()
		switch {
		case i > 1 && rng.Float64() < 0.2:
			c.AddArc(i, i+1, 0.8)
			c.AddArc(i, i-1, 0.2)
		case i+2 <= n && rng.Float64() < 0.3:
			c.AddArc(i, i+1, 0.6)
			c.AddArc(i, i+2, 0.4)
		default:
			c.AddArc(i, i+1, 1)
		}
	}
	return c
}

func TestChainLargeSolve(t *testing.T) {
	c := sequentialChain(3000, rand.New(rand.NewSource(17)))
	r, err := MeanTurnaround(c)
	if err != nil {
		t.Fatal(err)
	}
	// Forward chain of ~3000 states with mean residence ~1: turnaround
	// in the low thousands.
	if r < 1000 || r > 10000 {
		t.Errorf("turnaround = %v", r)
	}
	visits, err := ExpectedVisits(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(visits[0]-1) > 0.3 {
		t.Errorf("visits[0] = %v (only back arcs can revisit the start)", visits[0])
	}
	// Identity: R = Σ visits·H.
	var sum float64
	for i := 0; i < c.Absorbing(); i++ {
		sum += visits[i] * c.H[i]
	}
	if math.Abs(sum-r)/r > 1e-10 {
		t.Errorf("R = %v but Σ visits·H = %v", r, sum)
	}
}

// solverDelta runs f and returns what it added to the named
// process-wide solver counter.
func solverDelta(name string, f func()) linalg.SolverCounter {
	before := linalg.SolverCounters()
	f()
	return linalg.SolverCountersDelta(before)[name]
}

// TestAcyclicChainSolvesInTwoSweeps pins the sweep order: successors
// first, an acyclic chain is exact after one sweep and the second only
// confirms a zero update — front to back it would take one sweep per
// state.
func TestAcyclicChainSolvesInTwoSweeps(t *testing.T) {
	c := erlangChain(500, 0.25)
	c.Arcs[3] = nil
	c.AddArc(3, 4, 0.5)
	c.AddArc(3, 200, 0.5) // a skip keeps it acyclic
	got := solverDelta("gauss_seidel", func() {
		if _, _, err := TurnaroundMoments(c); err != nil {
			t.Fatal(err)
		}
		if _, err := ExpectedVisits(c); err != nil {
			t.Fatal(err)
		}
	})
	if got.Solves != 3 || got.Iterations != 6 || got.Fallbacks != 0 {
		t.Errorf("counters = %+v, want 3 solves of 2 sweeps each", got)
	}
}

// TestNearCertainLoopFallsBackToLU: a two-state loop that returns with
// probability 1−1e-7 converges far too slowly for the sweep budget, so
// the direct solve must produce the closed form H/(1−p) and be counted
// as exactly one fallback.
func TestNearCertainLoopFallsBackToLU(t *testing.T) {
	const p = 1 - 1e-7
	c := NewChain(3)
	c.H[0], c.H[1] = 2, 3
	c.AddArc(0, 1, 1)
	c.AddArc(1, 0, p)
	c.AddArc(1, 2, 1-p)
	var m linalg.Vector
	got := solverDelta("lu", func() {
		var err error
		if m, err = FirstPassageTimes(c); err != nil {
			t.Fatal(err)
		}
	})
	if got.Solves != 1 || got.Fallbacks != 1 {
		t.Errorf("lu counters = %+v, want exactly one fallback solve", got)
	}
	want := (c.H[0] + c.H[1]) / (1 - p)
	if math.Abs(m[0]-want) > 1e-6*want {
		t.Errorf("m[0] = %v, want H/(1-p) = %v", m[0], want)
	}
}

// TestNoConvergenceBeyondDenseBudget: the same loop on a chain too large
// for a direct solve is a typed no_convergence error, not a wrong answer.
func TestNoConvergenceBeyondDenseBudget(t *testing.T) {
	const p = 1 - 1e-7
	n := wfmserr.Default.MaxMatrixDim + 1
	c := erlangChain(n-1, 1)
	c.Arcs[n-2] = nil
	c.AddArc(n-2, 0, p)
	c.AddArc(n-2, n-1, 1-p)
	if _, err := FirstPassageTimes(c); !errors.Is(err, wfmserr.ErrNoConvergence) {
		t.Errorf("err = %v, want no_convergence", err)
	}
}
