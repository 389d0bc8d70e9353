package avail

import (
	"fmt"

	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/spec"
	"performa/internal/wfmserr"
)

// HoursPerYear converts a steady-state unavailability into expected
// downtime hours per year, the unit of the paper's worked example.
const HoursPerYear = 8760.0

// Model is the availability model of one configuration: the system-state
// CTMC over all (X_1, ..., X_k) with X ≤ Y.
type Model struct {
	params     []TypeParams
	discipline RepairDiscipline
	enc        *ctmc.StateEncoder
	solver     ctmc.SolverStrategy
}

// NewModelWithSolver builds the availability model with an explicit
// steady-state solver strategy; ctmc.SolverAuto picks the direct GTH
// solve for small joint chains and the sparse iterative pipeline
// beyond that. The pre-flight budget depends on the
// strategy: forcing the direct path keeps the MaxMatrixDim cap, while
// the sparse strategies admit up to MaxStates joint states.
func NewModelWithSolver(params []TypeParams, discipline RepairDiscipline, solver ctmc.SolverStrategy) (*Model, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("avail: model needs at least one server type")
	}
	if !solver.Valid() {
		return nil, wfmserr.New(wfmserr.CodeInvalidModel, "avail", "unknown solver strategy %v", solver)
	}
	caps := make([]int, len(params))
	for x, p := range params {
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("avail: type %d: %w", x, err)
		}
		if p.RepairStages > 1 {
			return nil, fmt.Errorf("avail: type %d: the exact joint model supports exponential repairs only; use the product-form path for Erlang stages", x)
		}
		caps[x] = p.Replicas
	}
	// Pre-flight before anything is allocated: the overflow check always,
	// then the budget matching the solve path.
	size, err := ctmc.StateSpaceSize(caps)
	if err != nil {
		return nil, err
	}
	if solver == ctmc.SolverDense {
		if err := wfmserr.Default.CheckMatrixDim("avail", size); err != nil {
			return nil, err
		}
	} else if err := wfmserr.Default.CheckStates("avail", size); err != nil {
		return nil, err
	}
	enc, err := ctmc.NewStateEncoderChecked(caps)
	if err != nil {
		return nil, err
	}
	return &Model{
		params:     append([]TypeParams(nil), params...),
		discipline: discipline,
		enc:        enc,
		solver:     solver,
	}, nil
}

// ParamsFromEnvironment extracts per-type availability parameters from an
// environment and a replication vector.
func ParamsFromEnvironment(env *spec.Environment, replicas []int) ([]TypeParams, error) {
	if len(replicas) != env.K() {
		return nil, fmt.Errorf("avail: %d replication degrees for %d server types", len(replicas), env.K())
	}
	params := make([]TypeParams, env.K())
	for x := 0; x < env.K(); x++ {
		st := env.Type(x)
		params[x] = TypeParams{
			Replicas:    replicas[x],
			FailureRate: st.FailureRate,
			RepairRate:  st.RepairRate,
		}
	}
	return params, nil
}

// Encoder returns the mixed-radix state encoder of the model.
func (m *Model) Encoder() *ctmc.StateEncoder { return m.enc }

// SteadyState solves the system-state CTMC exactly. Types that never
// fail (λ = 0) pin their dimension at X = Y; their unreachable states get
// probability zero by construction of the reachable subchain.
func (m *Model) SteadyState() (linalg.Vector, error) {
	// Dimensions that never fail or have no replicas are frozen at a
	// single value; solving over the full encoding would make the chain
	// reducible. Solve over the reachable subspace and embed.
	frozen := make([]bool, len(m.params))
	anyLive := false
	for t, p := range m.params {
		if p.Replicas == 0 || p.FailureRate == 0 {
			frozen[t] = true
		} else {
			anyLive = true
		}
	}
	if !anyLive {
		// Deterministic system: all mass on the single reachable state.
		pi := linalg.NewVector(m.enc.Size())
		x := make([]int, len(m.params))
		for t, p := range m.params {
			x[t] = p.Replicas
		}
		pi[m.enc.Encode(x)] = 1
		return pi, nil
	}

	liveIdx := make([]int, 0, len(m.params))
	liveCaps := make([]int, 0, len(m.params))
	for t, p := range m.params {
		if !frozen[t] {
			liveIdx = append(liveIdx, t)
			liveCaps = append(liveCaps, p.Replicas)
		}
	}
	liveEnc := ctmc.NewStateEncoder(liveCaps)
	// Stream the transposed generator straight off the encoder: row i of
	// Qᵀ lists the transitions INTO live state i, and the diagonal is
	// state i's negated outflow. Only one CSR matrix ever exists — no
	// dense Q, no forward copy — which is what lets the default budget
	// admit multi-million-state joint chains.
	x := make([]int, len(liveCaps))
	at := ctmc.AdjointCSR(liveEnc.Size(), func(i int, emit func(j int, rate float64)) {
		liveEnc.DecodeInto(x, i)
		for li, t := range liveIdx {
			p := m.params[t]
			// Failure arrives from the state with one more available
			// server: (X+1) servers each failing at rate λ.
			if x[li] < p.Replicas {
				x[li]++
				from := liveEnc.Encode(x)
				x[li]--
				emit(from, float64(x[li]+1)*p.FailureRate)
			}
			// Repair arrives from the state with one fewer available
			// server, which has (Y−X+1) servers in repair.
			if x[li] > 0 {
				rate := p.RepairRate
				if m.discipline == IndependentRepair {
					rate *= float64(p.Replicas - x[li] + 1)
				}
				x[li]--
				from := liveEnc.Encode(x)
				x[li]++
				emit(from, rate)
			}
		}
	}, func(i int) float64 {
		liveEnc.DecodeInto(x, i)
		var total float64
		for li, t := range liveIdx {
			p := m.params[t]
			total += float64(x[li]) * p.FailureRate
			if failed := p.Replicas - x[li]; failed > 0 {
				if m.discipline == IndependentRepair {
					total += float64(failed) * p.RepairRate
				} else {
					total += p.RepairRate
				}
			}
		}
		return total
	})
	// The live chain is irreducible by construction: every live dimension
	// has λ > 0 and μ > 0, so every state reaches (and is reached from)
	// the all-up corner.
	livePi, err := ctmc.SteadyStateAdjoint(at, ctmc.SparseOptions{Strategy: m.solver, AssumeIrreducible: true})
	if err != nil {
		return nil, fmt.Errorf("avail: steady state of %d-state availability CTMC: %w", liveEnc.Size(), err)
	}

	// Embed into the full encoding with frozen dimensions pinned.
	pi := linalg.NewVector(m.enc.Size())
	full := make([]int, len(m.params))
	for t, p := range m.params {
		full[t] = p.Replicas // frozen default
	}
	liveEnc.Each(func(code int, x []int) {
		for li, t := range liveIdx {
			full[t] = x[li]
		}
		pi[m.enc.Encode(full)] = livePi[code]
	})
	return pi, nil
}

// Report summarizes the availability assessment of one configuration.
type Report struct {
	// Replicas echoes the evaluated replication vector.
	Replicas []int
	// Availability is the steady-state probability that at least one
	// server of every type is up.
	Availability float64
	// Unavailability is 1 − Availability.
	Unavailability float64
	// DowntimeHoursPerYear is Unavailability · 8760 h.
	DowntimeHoursPerYear float64
	// TypeMarginals[x][j] is P(X_x = j).
	TypeMarginals []linalg.Vector
	// StateProbs is the steady-state distribution over the mixed-radix
	// system states; nil when produced by the pure product-form fast
	// path with JointProbs disabled.
	StateProbs linalg.Vector
	// Encoder decodes StateProbs indices; nil iff StateProbs is nil.
	Encoder *ctmc.StateEncoder
}

// DowntimeSecondsPerYear returns the expected downtime in seconds/year.
func (r *Report) DowntimeSecondsPerYear() float64 {
	return r.DowntimeHoursPerYear * 3600
}

// Downtime formats the expected yearly downtime in hours, minutes or
// seconds, the largest unit that keeps it at least 1.
func (r *Report) Downtime() string {
	switch h := r.DowntimeHoursPerYear; {
	case h >= 1:
		return fmt.Sprintf("%.1f h", h)
	case h*60 >= 1:
		return fmt.Sprintf("%.1f min", h*60)
	default:
		return fmt.Sprintf("%.1f s", h*3600)
	}
}

// Evaluate solves the exact joint CTMC and derives the availability
// report. The rates in params must share one time unit; availability is
// unit-free.
func Evaluate(params []TypeParams, discipline RepairDiscipline) (*Report, error) {
	return EvaluateSolver(params, discipline, ctmc.SolverAuto)
}

// EvaluateSolver is Evaluate with an explicit steady-state solver
// strategy, the entry point of the solver-differential harness: the same
// joint CTMC solved under different strategies must agree to solver
// tolerance.
func EvaluateSolver(params []TypeParams, discipline RepairDiscipline, solver ctmc.SolverStrategy) (*Report, error) {
	m, err := NewModelWithSolver(params, discipline, solver)
	if err != nil {
		return nil, err
	}
	pi, err := m.SteadyState()
	if err != nil {
		return nil, err
	}
	return reportFromStateProbs(params, pi, m.enc), nil
}

func reportFromStateProbs(params []TypeParams, pi linalg.Vector, enc *ctmc.StateEncoder) *Report {
	rep := &Report{
		Replicas:   make([]int, len(params)),
		StateProbs: pi,
		Encoder:    enc,
	}
	for x, p := range params {
		rep.Replicas[x] = p.Replicas
		rep.TypeMarginals = append(rep.TypeMarginals, linalg.NewVector(p.Replicas+1))
	}
	var up float64
	enc.Each(func(code int, x []int) {
		p := pi[code]
		if p == 0 {
			return
		}
		down := false
		for t := range params {
			rep.TypeMarginals[t][x[t]] += p
			if x[t] == 0 {
				down = true
			}
		}
		if !down {
			up += p
		}
	})
	rep.Availability = up
	rep.Unavailability = 1 - up
	if rep.Unavailability < 0 {
		rep.Unavailability = 0
	}
	rep.DowntimeHoursPerYear = rep.Unavailability * HoursPerYear
	return rep
}

// EvaluateProductForm derives the availability report from per-type
// marginals, exploiting the independence of server types. This is exact
// for the models in this package (failures and repairs never couple
// types) and exponentially cheaper than the joint CTMC. It also accepts
// Erlang repair stages (with SingleCrew).
//
// If buildJoint is true, the full joint distribution over system states
// is materialized (as the product of marginals) so the report can feed
// the performability model; otherwise StateProbs is nil.
func EvaluateProductForm(params []TypeParams, discipline RepairDiscipline, buildJoint bool) (*Report, error) {
	return EvaluateProductFormSolver(params, discipline, buildJoint, nil, ctmc.SolverAuto)
}
