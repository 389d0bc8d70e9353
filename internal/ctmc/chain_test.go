package ctmc

import (
	"math"
	"strings"
	"testing"

	"performa/internal/linalg"
)

// twoState returns the simplest chain: s0 → s_A with residence time h.
func twoState(h float64) *Chain {
	c := NewChain(2)
	c.H[0] = h
	c.AddArc(0, 1, 1)
	return c
}

// loopChain returns s0 → s1 (prob 1-q) or s0 → s_A (prob q), s1 → s0,
// modelling a retry loop.
func loopChain(q, h0, h1 float64) *Chain {
	c := NewChain(3)
	c.H[0], c.H[1] = h0, h1
	c.Names = []string{"work", "retry", ""}
	c.AddArc(0, 1, 1-q)
	c.AddArc(0, 2, q)
	c.AddArc(1, 0, 1)
	return c
}

// branchChain returns a 4-state chain with a probabilistic branch:
// s0 → s1 (p) | s2 (1-p); s1 → s_A; s2 → s_A.
func branchChain(p float64) *Chain {
	c := NewChain(4)
	copy(c.H, linalg.Vector{1, 2, 3, 0})
	c.AddArc(0, 1, p)
	c.AddArc(0, 2, 1-p)
	c.AddArc(1, 3, 1)
	c.AddArc(2, 3, 1)
	return c
}

func TestChainValidateOK(t *testing.T) {
	for _, c := range []*Chain{twoState(1), loopChain(0.5, 1, 2), branchChain(0.3)} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestChainValidateRejectsBadRows(t *testing.T) {
	c := twoState(1)
	c.Arcs[0][0].Prob = 0.5 // no longer stochastic
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "sum to") {
		t.Errorf("err = %v, want row-sum error", err)
	}
}

func TestChainValidateRejectsSelfLoop(t *testing.T) {
	c := NewChain(2)
	c.H[0] = 1
	c.AddArc(0, 0, 0.5)
	c.AddArc(0, 1, 0.5)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Errorf("err = %v, want self-loop error", err)
	}
}

func TestChainValidateRejectsNonPositiveResidence(t *testing.T) {
	c := twoState(0)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "residence") {
		t.Errorf("err = %v, want residence-time error", err)
	}
}

func TestChainValidateRejectsAbsorbingOutflow(t *testing.T) {
	c := twoState(1)
	c.AddArc(1, 0, 1)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "absorbing") {
		t.Errorf("err = %v, want absorbing-outflow error", err)
	}
}

func TestChainValidateRejectsUnreachableAbsorption(t *testing.T) {
	// s0 → s1 → s0: absorbing state unreachable.
	c := NewChain(3)
	c.H[0], c.H[1] = 1, 1
	c.AddArc(0, 1, 1)
	c.AddArc(1, 0, 1)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("err = %v, want unreachable error", err)
	}
	if got := c.Stuck(); got != 0 {
		t.Errorf("Stuck = %d, want 0 (the lowest state that cannot absorb)", got)
	}
}

func TestChainValidateRejectsNegativeProbability(t *testing.T) {
	c := NewChain(2)
	c.H[0] = 1
	c.AddArc(0, 1, 1.5)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "probability") {
		t.Errorf("err = %v, want probability error", err)
	}
}

func TestChainValidateRejectsTinyChain(t *testing.T) {
	if err := NewChain(1).Validate(); err == nil {
		t.Error("single-state chain accepted")
	}
}

func TestChainValidateRejectsBadArcs(t *testing.T) {
	unknown := NewChain(2)
	unknown.H[0] = 1
	unknown.Arcs[0] = []Arc{{To: 7, Prob: 1}}
	if err := unknown.Validate(); err == nil || !strings.Contains(err.Error(), "unknown state") {
		t.Errorf("err = %v, want unknown-target error", err)
	}
	short := twoState(1)
	short.Arcs = short.Arcs[:1]
	if err := short.Validate(); err == nil || !strings.Contains(err.Error(), "arc lists") {
		t.Errorf("err = %v, want arc-list-count error", err)
	}
}

func TestAddArcSortsAndMerges(t *testing.T) {
	c := NewChain(5)
	c.AddArc(0, 3, 0.25)
	c.AddArc(0, 1, 0.25)
	c.AddArc(0, 4, 0.125)
	c.AddArc(0, 3, 0.25)
	c.AddArc(0, 2, 0.125)
	want := []Arc{{1, 0.25}, {2, 0.125}, {3, 0.5}, {4, 0.125}}
	if len(c.Arcs[0]) != len(want) {
		t.Fatalf("arcs = %v, want %v", c.Arcs[0], want)
	}
	for k, a := range c.Arcs[0] {
		if a != want[k] {
			t.Errorf("arc %d = %v, want %v", k, a, want[k])
		}
	}
}

func TestChainNext(t *testing.T) {
	c := NewChain(4)
	c.AddArc(0, 3, 0.5)
	c.AddArc(0, 1, 0.25)
	c.AddArc(0, 2, 0) // never taken
	c.AddArc(0, 3, 0.25)
	for _, tc := range []struct {
		u    float64
		want int
	}{{0, 1}, {0.2499, 1}, {0.25, 3}, {0.999, 3}, {1.5, 3}} {
		if got := c.Next(0, tc.u); got != tc.want {
			t.Errorf("Next(0, %v) = %d, want %d", tc.u, got, tc.want)
		}
	}
	if got := c.Next(1, 0.5); got != c.Absorbing() {
		t.Errorf("Next on an arc-less state = %d, want the absorbing state", got)
	}
}

func TestChainNames(t *testing.T) {
	c := loopChain(0.5, 1, 1)
	if got := c.Name(0); got != "work" {
		t.Errorf("Name(0) = %q", got)
	}
	if got := c.Name(2); got != "s_A" {
		t.Errorf("Name(2) = %q", got)
	}
	unnamed := twoState(1)
	if got := unnamed.Name(0); got != "s0" {
		t.Errorf("Name(0) = %q", got)
	}
	if got := unnamed.Name(1); got != "s_A" {
		t.Errorf("Name(absorbing) = %q", got)
	}
}

func TestChainRatesAndMaxRate(t *testing.T) {
	c := loopChain(0.5, 2, 4)
	if got := c.MaxRate(); got != 0.5 {
		t.Errorf("MaxRate = %v, want 0.5", got)
	}
	uni := c.uniformize()
	if uni.rate != 0.5 || uni.jump[0] != 1 || uni.jump[1] != 0.5 || uni.jump[2] != 0 {
		t.Errorf("uniformized rate %v, jump fractions %v", uni.rate, uni.jump)
	}
}

func TestChainUniformizedStochasticWithAbsorptionDeficit(t *testing.T) {
	c := branchChain(0.5)
	uni := c.uniformize()
	if uni.rate != 1 {
		t.Errorf("uniformization rate = %v, want 1 (max of 1, 0.5, 1/3)", uni.rate)
	}
	// row(a) is the a-th row of the uniformized matrix: one step from
	// all mass on a.
	row := func(a int) linalg.Vector {
		src, dst := linalg.NewVector(c.N()), linalg.NewVector(c.N())
		src[a] = 1
		uni.step(dst, src)
		return dst
	}
	abs := c.Absorbing()
	// Row 0 has no absorption, so its transient part must sum to 1.
	if r := row(0); math.Abs(r[:abs].Sum()-1) > 1e-12 || r[abs] != 0 {
		t.Errorf("row 0 = %v, want all mass on transient states", r)
	}
	// State 1: v_1 = 0.5, jumps to s_A with prob 1. The taboo part keeps
	// only the self-loop 1 - v_1/v = 0.5; the rest is absorbed.
	if r := row(1); math.Abs(r[:abs].Sum()-0.5) > 1e-12 || math.Abs(r[abs]-0.5) > 1e-12 {
		t.Errorf("row 1 = %v, want 0.5 staying and 0.5 absorbed", r)
	}
	// The absorbing state keeps its mass.
	if r := row(abs); r[abs] != 1 {
		t.Errorf("absorbing row = %v", r)
	}
}
