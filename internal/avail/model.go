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

// jointGTHStates is the largest live joint chain Evaluate solves by
// GTH, whose cost is O(n·b²) with b the largest live stride. Above it
// Evaluate returns the product of the per-type marginals: the types fail
// and are repaired independently, so that product is the same
// distribution exactly (DESIGN §11).
const jointGTHStates = 512

// Model is the availability model of one configuration: the system-state
// CTMC over all (X_1, ..., X_k) with X ≤ Y.
type Model struct {
	params     []TypeParams
	discipline RepairDiscipline
	enc        *ctmc.StateEncoder
	// live lists the types that fail and have replicas; the others are
	// frozen at X = Y. liveEnc encodes the live dimensions only.
	live    []int
	liveEnc *ctmc.StateEncoder
}

// NewModel builds the availability model of one configuration. The
// joint state space is pre-flighted against the state budget before
// anything is allocated.
func NewModel(params []TypeParams, discipline RepairDiscipline) (*Model, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("avail: model needs at least one server type")
	}
	caps := make([]int, len(params))
	m := &Model{params: append([]TypeParams(nil), params...), discipline: discipline}
	var liveCaps []int
	for x, p := range params {
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("avail: type %d: %w", x, err)
		}
		if p.RepairStages > 1 {
			return nil, fmt.Errorf("avail: type %d: the exact joint model supports exponential repairs only; use the product-form path for Erlang stages", x)
		}
		caps[x] = p.Replicas
		if p.Replicas > 0 && p.FailureRate > 0 {
			m.live = append(m.live, x)
			liveCaps = append(liveCaps, p.Replicas)
		}
	}
	size, err := ctmc.StateSpaceSize(caps)
	if err != nil {
		return nil, err
	}
	if err := wfmserr.Default.CheckStates("avail", size); err != nil {
		return nil, err
	}
	if m.enc, err = ctmc.NewStateEncoderChecked(caps); err != nil {
		return nil, err
	}
	m.liveEnc = ctmc.NewStateEncoder(liveCaps)
	return m, nil
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

// SteadyState solves the system-state CTMC exactly by GTH. Types that
// never fail (λ = 0) or have no replicas are frozen at X = Y: the solve
// runs over the live subchain, which is irreducible, and embeds it with
// zero probability on the unreachable states. A live chain above
// jointGTHStates is refused; Evaluate answers it in product form.
func (m *Model) SteadyState() (linalg.Vector, error) {
	n := m.liveEnc.Size()
	if n > jointGTHStates {
		return nil, wfmserr.New(wfmserr.CodeBudgetExceeded, "avail",
			"joint chain of %d live states is above the GTH cutover; Evaluate answers it in product form", n).
			With("limit", jointGTHStates)
	}
	// Each live type moves by ± its dimension's stride, so the band is
	// the largest live stride: that of the last live dimension.
	b := 0
	if d := len(m.live); d > 0 {
		b = n / (m.liveEnc.Cap(d-1) + 1)
	}
	x := make([]int, len(m.live))
	livePi, err := ctmc.GTH(n, b, func(i int, emit func(j int, rate float64)) {
		m.liveEnc.DecodeInto(x, i)
		for li, t := range m.live {
			p := m.params[t]
			// Failure: each of the X available servers fails at rate λ.
			if x[li] > 0 {
				x[li]--
				to := m.liveEnc.Encode(x)
				x[li]++
				emit(to, float64(x[li])*p.FailureRate)
			}
			// Repair: Y−X servers in repair at rate μ each, or one crew.
			if x[li] < p.Replicas {
				rate := p.RepairRate
				if m.discipline == IndependentRepair {
					rate *= float64(p.Replicas - x[li])
				}
				x[li]++
				to := m.liveEnc.Encode(x)
				x[li]--
				emit(to, rate)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("avail: steady state of %d-state availability CTMC: %w", n, err)
	}

	// Embed into the full encoding with frozen dimensions pinned.
	pi := linalg.NewVector(m.enc.Size())
	full := make([]int, len(m.params))
	for t, p := range m.params {
		full[t] = p.Replicas
	}
	m.liveEnc.Each(func(code int, x []int) {
		for li, t := range m.live {
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
// unit-free. A live joint chain above jointGTHStates is answered by
// EvaluateProductForm with the joint vector built: the same distribution,
// exactly, at the cost of the marginals.
func Evaluate(params []TypeParams, discipline RepairDiscipline) (*Report, error) {
	m, err := NewModel(params, discipline)
	if err != nil {
		return nil, err
	}
	if m.liveEnc.Size() > jointGTHStates {
		return EvaluateProductForm(params, discipline, true)
	}
	pi, err := m.SteadyState()
	if err != nil {
		return nil, err
	}
	return reportFromStateProbs(params, pi, m.enc), nil
}

// EvaluateSolver equals Evaluate: GTH is the one steady-state solve. It
// stays because bench/ calls it by this signature.
func EvaluateSolver(params []TypeParams, discipline RepairDiscipline, _ ctmc.SolverStrategy) (*Report, error) {
	return Evaluate(params, discipline)
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
// is materialized as the product of marginals; otherwise StateProbs is
// nil. Evaluate returns this report, joint vector built, for live joint
// chains above jointGTHStates.
func EvaluateProductForm(params []TypeParams, discipline RepairDiscipline, buildJoint bool) (*Report, error) {
	return EvaluateProductFormSolver(params, discipline, buildJoint, nil, ctmc.SolverAuto)
}
