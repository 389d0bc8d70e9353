package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomAdjointCSR builds Qᵀ for a random irreducible CTMC: a ring of
// positive rates (guaranteeing irreducibility) plus random extra arcs.
// Returns the adjoint and the dense generator Q it came from.
func randomAdjointCSR(rng *rand.Rand, n int) (*Sparse, *Matrix) {
	q := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		q.Set(i, (i+1)%n, 0.5+rng.Float64())
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < 0.3 {
				q.Set(i, j, rng.Float64())
			}
		}
	}
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if j != i {
				sum += q.At(i, j)
			}
		}
		q.Set(i, i, -sum)
	}
	b := NewSparseBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if x := q.At(j, i); x != 0 {
				b.Set(i, j, x)
			}
		}
	}
	return b.Build(), q
}

// denseSteady solves the normalized steady-state system by LU as the
// reference: Qᵀ with a ones last row, rhs e_{n-1}.
func denseSteady(t *testing.T, q *Matrix) Vector {
	t.Helper()
	n := q.Rows()
	a := q.Transpose()
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := NewVector(n)
	b[n-1] = 1
	lu, err := FactorLU(a)
	if err != nil {
		t.Fatalf("reference LU: %v", err)
	}
	pi, err := lu.Solve(b)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return pi
}

// TestOnesRowSolversMatchDenseSteadyState holds the sparse Gauss-Seidel
// sweep to the LU reference on random irreducible generators. The sweep
// carries no convergence guarantee on arbitrary generators (a miss is a
// typed no_convergence upstream), so a trial may skip — but not all.
func TestOnesRowSolversMatchDenseSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	converged := 0
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		at, q := randomAdjointCSR(rng, n)
		want := denseSteady(t, q)
		got, iters, err := OnesRowGaussSeidel(at, nil, GaussSeidelOptions{})
		if err != nil {
			continue
		}
		converged++
		if iters <= 0 {
			t.Fatalf("trial %d: reported %d iterations", trial, iters)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("trial %d: π[%d] = %v, dense %v", trial, i, got[i], want[i])
			}
		}
	}
	if converged == 0 {
		t.Fatal("gauss-seidel converged on no trial")
	}
}

// TestOnesRowGaussSeidelBirthDeath pins the production regime: a
// birth–death chain shaped like the availability marginals, where the
// state counts up servers, repair (up) outruns failure (down), and the
// bulk of the mass sits at the all-up state n−1 — exactly the row the
// normalized system pins. The ascending Gauss-Seidel sweep must
// converge to the closed-form geometric distribution there. (With the
// drift reversed — mass at state 0, far from the pinned row — the sweep
// diverges, which the CTMC layer reports as a typed no_convergence.)
func TestOnesRowGaussSeidelBirthDeath(t *testing.T) {
	const n, up, down = 12, 1.0, 0.4
	b := NewSparseBuilder(n)
	for i := 0; i < n; i++ {
		var out float64
		if i+1 < n {
			b.Set(i+1, i, up) // adjoint entry for i → i+1
			out += up
		}
		if i > 0 {
			b.Set(i-1, i, down) // adjoint entry for i → i−1
			out += down
		}
		b.Set(i, i, -out)
	}
	at := b.Build()
	pi, iters, err := OnesRowGaussSeidel(at, nil, GaussSeidelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Fatalf("reported %d iterations", iters)
	}
	// Closed form: π_i ∝ ρ^i with ρ = up/down.
	rho := up / down
	norm := (rho - 1) / (math.Pow(rho, n) - 1)
	for i := 0; i < n; i++ {
		want := norm * math.Pow(rho, float64(i))
		if math.Abs(pi[i]-want) > 1e-9 {
			t.Fatalf("π[%d] = %v, closed form %v", i, pi[i], want)
		}
	}
}

func TestOnesRowApplyAndRhs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	at, q := randomAdjointCSR(rng, 6)
	sys := OnesRow{A: at}
	if sys.N() != 6 {
		t.Fatalf("N = %d, want 6", sys.N())
	}
	v := NewVector(6)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	dst := NewVector(6)
	sys.Apply(dst, v)
	// Rows 0..n-2 are Qᵀ v; the last row is Σ v.
	qt := q.Transpose()
	ref := qt.MulVec(v)
	for i := 0; i < 5; i++ {
		if math.Abs(dst[i]-ref[i]) > 1e-12 {
			t.Fatalf("apply row %d = %v, want %v", i, dst[i], ref[i])
		}
	}
	var total float64
	for _, x := range v {
		total += x
	}
	if math.Abs(dst[5]-total) > 1e-12 {
		t.Fatalf("ones row = %v, want Σv = %v", dst[5], total)
	}

	// At the stationary distribution the system reads A π = e_{n-1}.
	sys.Apply(dst, denseSteady(t, q))
	for i, x := range dst {
		want := 0.0
		if i == 5 {
			want = 1
		}
		if math.Abs(x-want) > 1e-12 {
			t.Fatalf("A π row %d = %v, want %v", i, x, want)
		}
	}
}
