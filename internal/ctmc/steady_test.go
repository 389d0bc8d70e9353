package ctmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"performa/internal/linalg"
)

func birthDeath(lambda, mu float64) *linalg.Matrix {
	return linalg.MatrixFromRows([][]float64{
		{-lambda, lambda},
		{mu, -mu},
	})
}

func TestSteadyStateTwoStates(t *testing.T) {
	lambda, mu := 2.0, 3.0
	pi, err := SteadyState(birthDeath(lambda, mu))
	if err != nil {
		t.Fatal(err)
	}
	// Detailed balance: π_0 λ = π_1 μ ⇒ π = (μ, λ)/(λ+μ).
	want := linalg.Vector{mu / (lambda + mu), lambda / (lambda + mu)}
	for i := range want {
		if math.Abs(pi[i]-want[i]) > 1e-10 {
			t.Errorf("π[%d] = %v, want %v", i, pi[i], want[i])
		}
	}
}

func TestSteadyStateMM1K(t *testing.T) {
	// M/M/1/3 queue: birth rate λ, death rate μ; π_n ∝ (λ/μ)^n.
	lambda, mu := 1.0, 2.0
	n := 4
	q := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			q.Add(i, i+1, lambda)
			q.Add(i, i, -lambda)
		}
		if i > 0 {
			q.Add(i, i-1, mu)
			q.Add(i, i, -mu)
		}
	}
	pi, err := SteadyState(q)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	norm := 0.0
	for i := 0; i < n; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for i := 0; i < n; i++ {
		want := math.Pow(rho, float64(i)) / norm
		if math.Abs(pi[i]-want) > 1e-10 {
			t.Errorf("π[%d] = %v, want %v", i, pi[i], want)
		}
	}
}

func TestSteadyStateRejectsBadGenerator(t *testing.T) {
	q := linalg.MatrixFromRows([][]float64{{-1, 2}, {1, -1}})
	if _, err := SteadyState(q); err == nil {
		t.Error("non-zero row sum accepted")
	}
	q2 := linalg.MatrixFromRows([][]float64{{1, -1}, {1, -1}})
	if _, err := SteadyState(q2); err == nil {
		t.Error("negative off-diagonal accepted")
	}
	if _, err := SteadyState(linalg.NewMatrix(2, 3)); err == nil {
		t.Error("non-square generator accepted")
	}
	if _, err := SteadyState(linalg.NewMatrix(0, 0)); err == nil {
		t.Error("empty generator accepted")
	}
}

func TestSteadyStateReducibleChainFails(t *testing.T) {
	// Two disconnected components: the balance system is rank-deficient
	// even with normalization, so the solve must error out rather than
	// return an arbitrary mixture.
	q := linalg.NewMatrix(4, 4)
	q.Set(0, 1, 1)
	q.Set(0, 0, -1)
	q.Set(1, 0, 1)
	q.Set(1, 1, -1)
	q.Set(2, 3, 1)
	q.Set(2, 2, -1)
	q.Set(3, 2, 1)
	q.Set(3, 3, -1)
	if _, err := SteadyState(q); err == nil {
		t.Error("reducible chain accepted")
	}
}

func TestValidateGeneratorOK(t *testing.T) {
	if err := ValidateGenerator(birthDeath(1, 1)); err != nil {
		t.Errorf("ValidateGenerator: %v", err)
	}
}

// randomErgodicGenerator builds a fully connected random generator.
func randomErgodicGenerator(rng *rand.Rand, n int) *linalg.Matrix {
	q := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			r := 0.05 + rng.Float64()
			q.Set(i, j, r)
			sum += r
		}
		q.Set(i, i, -sum)
	}
	return q
}

func TestQuickSteadyStateBalances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		q := randomErgodicGenerator(rng, n)
		pi, err := SteadyState(q)
		if err != nil {
			return false
		}
		// π must be a distribution solving πQ = 0.
		if math.Abs(pi.Sum()-1) > 1e-9 {
			return false
		}
		flow := q.VecMul(pi)
		for _, x := range flow {
			if math.Abs(x) > 1e-8 {
				return false
			}
		}
		for _, p := range pi {
			if p < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGTHBandIsExact: solving a banded chain on its own band and on the
// full band must give the same bits (the extra cells are zeros, and
// adding zero rounds nothing), and the answer must balance.
func TestGTHBandIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, b = 40, 3
	q := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-b); j <= min(n-1, i+b); j++ {
			if j != i && (j == i+1 || j == i-1 || rng.Float64() < 0.5) {
				r := 0.01 + rng.Float64()
				q.Set(i, j, r)
				q.Add(i, i, -r)
			}
		}
	}
	out := func(i int, emit func(j int, rate float64)) {
		for j, r := range q.Row(i) {
			if r > 0 {
				emit(j, r)
			}
		}
	}
	banded, err := GTH(n, b, out)
	if err != nil {
		t.Fatal(err)
	}
	full, err := GTH(n, n-1, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if banded[i] != full[i] {
			t.Fatalf("π[%d] = %v on band %d, %v on the full band", i, banded[i], b, full[i])
		}
	}
	for j, x := range q.VecMul(banded) {
		if math.Abs(x) > 1e-14 {
			t.Fatalf("(πQ)[%d] = %v", j, x)
		}
	}
}

// TestGTHSpansBeyondFloatRange: a birth–death chain whose masses span
// 10^399 must still solve (the back-substitution rescales instead of
// overflowing), with the top of the distribution exact.
func TestGTHSpansBeyondFloatRange(t *testing.T) {
	const n = 400
	pi, err := GTH(n, 1, func(i int, emit func(j int, rate float64)) {
		if i+1 < n {
			emit(i+1, 10)
		}
		if i > 0 {
			emit(i-1, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]float64{n - 1: 0.9, n - 2: 0.09, n - 3: 0.009} {
		if rel := math.Abs(pi[i]-want) / want; rel > 1e-14 {
			t.Errorf("π[%d] = %v, want %v (relative error %.3g)", i, pi[i], want, rel)
		}
	}
	if pi[0] != 0 || math.Abs(pi.Sum()-1) > 1e-15 {
		t.Errorf("π[0] = %v (want underflow to 0), Σπ = %v", pi[0], pi.Sum())
	}
}
