// Package linalg provides the dense linear-algebra substrate used by the
// Markov-chain models: vectors, matrices, an LU direct solver with
// partial pivoting (the fallback of ctmc's Gauss-Seidel absorption solve
// and an independent reference in tests), and the process-wide solver
// counters.
//
// The package is intentionally self-contained and dependency-free; the
// matrices arising from workflow CTMCs are small (tens to a few thousand
// states), so dense storage with O(n^3) direct solves is the right
// trade-off and keeps the numerics auditable.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Fill sets every component of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Sum returns the sum of the components of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Dot returns the inner product of v and w.
// It panics if the lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot of vectors with lengths %d and %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled adds alpha*w to v in place and returns v.
// It panics if the lengths differ.
func (v Vector) AddScaled(alpha float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: addScaled of vectors with lengths %d and %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
	return v
}

// Scale multiplies every component of v by alpha in place and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Max returns the largest component of v, or negative infinity for an
// empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest component of v, or positive infinity for an
// empty vector.
func (v Vector) Min() float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

// NormInf returns the maximum absolute component of v.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Norm1 returns the sum of absolute components of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Normalize scales v in place so its components sum to one and returns v.
// It panics if the component sum is zero or not finite, since such a
// vector cannot represent a probability distribution. Callers on the
// untrusted-input route should use Normalized instead.
func (v Vector) Normalize() Vector {
	w, err := v.Normalized()
	if err != nil {
		panic(err.Error())
	}
	return w
}

// Normalized scales v in place so its components sum to one, reporting
// an error instead of panicking when the component sum is zero or not
// finite (the vector then cannot represent a probability distribution).
func (v Vector) Normalized() (Vector, error) {
	s := v.Sum()
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("linalg: cannot normalize vector with component sum %v", s)
	}
	return v.Scale(1 / s), nil
}

// String renders v in a compact bracketed form.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.6g", x)
	}
	b.WriteByte(']')
	return b.String()
}
