package perf

import (
	"fmt"
	"math"
)

// ErlangC returns the Erlang-C probability that an arriving request must
// wait in an M/M/c system with offered load a = λ/μ (in Erlangs) and c
// servers. It returns 1 for a ≥ c (unstable system: every arrival
// eventually waits behind an unbounded queue).
func ErlangC(c int, a float64) (float64, error) {
	if c < 1 {
		return 0, fmt.Errorf("perf: Erlang-C needs at least one server, got %d", c)
	}
	if a < 0 || math.IsNaN(a) {
		return 0, fmt.Errorf("perf: invalid offered load %v", a)
	}
	if a == 0 {
		return 0, nil
	}
	if a >= float64(c) {
		return 1, nil
	}
	// Iteratively: inverse Erlang-B recursion, then convert B → C.
	// B(0, a) = 1; B(k, a) = a·B(k−1, a) / (k + a·B(k−1, a)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho + rho*b), nil
}

// MMCWaiting returns the mean waiting time of an M/M/c queue with arrival
// rate lambda and per-server mean service time b — the pooled
// (shared-queue) counterpart of the paper's split M/G/1 model, exact for
// exponential service. It returns +Inf at or beyond saturation.
func MMCWaiting(c int, lambda, b float64) (float64, error) {
	if !(b > 0) {
		return 0, fmt.Errorf("perf: mean service time %v must be positive", b)
	}
	if lambda < 0 {
		return 0, fmt.Errorf("perf: negative arrival rate %v", lambda)
	}
	if lambda == 0 {
		return 0, nil
	}
	a := lambda * b
	if a >= float64(c) {
		return math.Inf(1), nil
	}
	pWait, err := ErlangC(c, a)
	if err != nil {
		return 0, err
	}
	// E[W] = C(c, a) / (c/b − λ).
	return pWait / (float64(c)/b - lambda), nil
}
