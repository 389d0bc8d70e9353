package linalg

import "sync"

// SolverCounter aggregates the outcomes of solves routed through one
// named solver ("lu", "gauss_seidel", "sparse_gauss_seidel"). Fallbacks
// counts the solves where this solver ran because a preferred one failed —
// previously those fallbacks were silent, which made "why is assessment
// slow / why do results differ" undiagnosable from the outside.
type SolverCounter struct {
	Solves     int64 `json:"solves"`
	Iterations int64 `json:"iterations"`
	Fallbacks  int64 `json:"fallbacks"`
}

var (
	solverMu       sync.Mutex
	solverCounters = make(map[string]SolverCounter)
)

// RecordSolve adds one completed solve to the process-wide counters.
// iters is the iteration count (zero for direct methods); fellBack marks
// a solve that ran only because a preferred solver failed first.
func RecordSolve(solver string, iters int, fellBack bool) {
	solverMu.Lock()
	c := solverCounters[solver]
	c.Solves++
	c.Iterations += int64(iters)
	if fellBack {
		c.Fallbacks++
	}
	solverCounters[solver] = c
	solverMu.Unlock()
}

// SolverCounters returns a snapshot of the process-wide per-solver
// counters.
func SolverCounters() map[string]SolverCounter {
	solverMu.Lock()
	defer solverMu.Unlock()
	out := make(map[string]SolverCounter, len(solverCounters))
	for k, v := range solverCounters {
		out[k] = v
	}
	return out
}

// SolverCountersDelta returns the per-solver counters accumulated since
// the given snapshot, omitting solvers with no activity. Counters are
// process-global, so on a concurrent server the delta attributes any
// overlapping requests' solves as well; it is meant as a diagnostic
// trace, not an exact accounting.
func SolverCountersDelta(since map[string]SolverCounter) map[string]SolverCounter {
	now := SolverCounters()
	out := make(map[string]SolverCounter)
	for k, v := range now {
		prev := since[k]
		d := SolverCounter{
			Solves:     v.Solves - prev.Solves,
			Iterations: v.Iterations - prev.Iterations,
			Fallbacks:  v.Fallbacks - prev.Fallbacks,
		}
		if d.Solves != 0 || d.Iterations != 0 || d.Fallbacks != 0 {
			out[k] = d
		}
	}
	return out
}
