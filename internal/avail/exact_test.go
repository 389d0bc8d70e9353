package avail

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"performa/internal/workload"
)

// exactErlangMarginal solves the Erlang single-crew phase chain by
// rational Gaussian elimination on Qᵀ with its last row replaced by
// ones, independently of the production solve: the states are
// (j, ph) at j·k + ph − 1 with the full state last, and every rate is
// the float64 the production chain uses, taken exactly. It returns
// P(X = j) rounded once to float64.
func exactErlangMarginal(p TypeParams) []float64 {
	y, k := p.Replicas, p.RepairStages
	n := y*k + 1
	rat := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	// a is the augmented system [Qᵀ | 0] with row n−1 = [1 … 1 | 1].
	a := make([][]*big.Rat, n)
	for i := range a {
		a[i] = make([]*big.Rat, n+1)
		for j := range a[i] {
			a[i][j] = new(big.Rat)
		}
	}
	move := func(from, to int, rate float64) {
		r := rat(rate)
		a[to][from].Add(a[to][from], r)     // inflow to `to`
		a[from][from].Sub(a[from][from], r) // outflow of `from`
	}
	stage := float64(k) * p.RepairRate
	for i := 0; i < n-1; i++ {
		if j := i / k; j > 0 {
			move(i, i-k, float64(j)*p.FailureRate)
		}
		move(i, i+1, stage)
	}
	move(n-1, n-1-k, float64(y)*p.FailureRate)
	for j := 0; j <= n; j++ {
		a[n-1][j].SetInt64(1)
	}
	// Forward elimination; below the diagonal Qᵀ holds only the stage
	// inflow and the ones row, so this stays cheap.
	tmp := new(big.Rat)
	for col := 0; col < n; col++ {
		piv := col
		for a[piv][col].Sign() == 0 {
			piv++
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < n; r++ {
			if a[r][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Quo(a[r][col], a[col][col])
			for j := col; j <= n; j++ {
				if a[col][j].Sign() != 0 {
					a[r][j].Sub(a[r][j], tmp.Mul(f, a[col][j]))
				}
			}
		}
	}
	x := make([]*big.Rat, n)
	for i := n - 1; i >= 0; i-- {
		x[i] = new(big.Rat).Set(a[i][n])
		for j := i + 1; j < n; j++ {
			if a[i][j].Sign() != 0 {
				x[i].Sub(x[i], tmp.Mul(a[i][j], x[j]))
			}
		}
		x[i].Quo(x[i], a[i][i])
	}
	sums := make([]*big.Rat, y+1)
	for j := range sums {
		sums[j] = new(big.Rat)
	}
	for i := 0; i < n; i++ {
		sums[i/k].Add(sums[i/k], x[i])
	}
	out := make([]float64, y+1)
	for j, s := range sums {
		out[j], _ = s.Float64()
	}
	return out
}

// TestErlangMarginalMatchesExactRational pins every entry of the Erlang
// single-crew marginal to the exact rational solution of the same chain,
// including π_x(0) deep in the tail, where floating-point elimination on
// Qᵀ loses every digit. (32, 8, 0.01) is left out only because its
// rational solve takes seconds.
func TestErlangMarginalMatchesExactRational(t *testing.T) {
	cases := []struct {
		y, k  int
		ratio float64 // λ/μ, μ = 1
	}{
		{8, 4, 0.1}, {8, 8, 0.01}, {16, 8, 0.01}, {5, 3, 1e-4}, {12, 5, 3},
		{3, 2, 1}, {1, 6, 0.5},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("Y=%d,k=%d,ratio=%g", c.y, c.k, c.ratio), func(t *testing.T) {
			if c.y*c.k > 64 && testing.Short() {
				t.Skip("large rational solve")
			}
			p := TypeParams{Replicas: c.y, FailureRate: c.ratio, RepairRate: 1, RepairStages: c.k}
			got, err := TypeMarginal(p, SingleCrew)
			if err != nil {
				t.Fatal(err)
			}
			want := exactErlangMarginal(p)
			for j := range want {
				if rel := math.Abs(got[j]-want[j]) / want[j]; !(rel <= 1e-14) {
					t.Errorf("P(X=%d) = %v, exact %v (relative error %.3g)", j, got[j], want[j], rel)
				}
			}
		})
	}
}

// TestErlangOneStageMatchesClosedForm runs the phase chain with a single
// stage, where it is the exponential single-crew birth–death chain, and
// requires the closed form's answer in every entry.
func TestErlangOneStageMatchesClosedForm(t *testing.T) {
	for _, ratio := range []float64{1e-4, 0.01, 0.3, 1, 7} {
		p := TypeParams{Replicas: 9, FailureRate: ratio, RepairRate: 1, RepairStages: 1}
		got, err := erlangSingleCrewMarginal(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exponentialMarginal(p, SingleCrew)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if rel := math.Abs(got[j]-want[j]) / want[j]; !(rel <= 1e-15) {
				t.Errorf("λ/μ=%g: P(X=%d) = %v, closed form %v (relative error %.3g)", ratio, j, got[j], want[j], rel)
			}
		}
	}
}

// TestJointChainEntrywiseAccurate solves the paper environment's joint
// availability CTMC and requires every state probability, down to the
// all-down corner (≈ 1e-62 at (7,7,7)), to match the product of the
// per-type closed forms to a relative 1e-11 — the closed form's own
// 1 − up round-off.
func TestJointChainEntrywiseAccurate(t *testing.T) {
	env := workload.PaperEnvironment()
	for _, y := range []int{1, 3, 5, 7} {
		params, err := ParamsFromEnvironment(env, []int{y, y, y})
		if err != nil {
			t.Fatal(err)
		}
		joint, err := Evaluate(params, IndependentRepair)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := EvaluateProductForm(params, IndependentRepair, true)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i, want := range pf.StateProbs {
			rel := math.Abs(joint.StateProbs[i]-want) / want
			if !(rel <= 1e-11) {
				t.Errorf("(%d,%d,%d): π[%d] = %v, product form %v (relative error %.3g)",
					y, y, y, i, joint.StateProbs[i], want, rel)
			}
			worst = max(worst, rel)
		}
		t.Logf("(%d,%d,%d): worst relative error %.3g over %d states", y, y, y, worst, len(pf.StateProbs))
	}
}
