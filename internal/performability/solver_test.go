package performability

import (
	"testing"

	"performa/internal/ctmc"
	"performa/internal/perf"
)

func TestOptionsRejectUnknownSolver(t *testing.T) {
	env := failingEnv(t)
	a := analysis(t, env, 1)
	_, err := Evaluate(a, perf.Config{Replicas: []int{1, 1, 1}}, Options{Solver: ctmc.SolverStrategy(42)})
	if err == nil {
		t.Fatal("unknown solver strategy accepted")
	}
}
