package avail

import (
	"fmt"
	"sync"

	"performa/internal/ctmc"
	"performa/internal/linalg"
	"performa/internal/wfmserr"
)

// marginalKey identifies one per-type birth-death solve: the marginal
// P(X = j) depends only on these parameters, never on the rest of the
// configuration, so it can be shared across candidate configurations.
type marginalKey struct {
	replicas, stages int
	failure, repair  float64
	discipline       RepairDiscipline
}

// MarginalCache memoizes TypeMarginal solves. It is safe for concurrent
// use; cached vectors are shared and must be treated as read-only.
type MarginalCache struct {
	mu sync.RWMutex
	m  map[marginalKey]linalg.Vector
}

// NewMarginalCache returns an empty cache.
func NewMarginalCache() *MarginalCache {
	return &MarginalCache{m: make(map[marginalKey]linalg.Vector)}
}

// Size returns the number of memoized per-type marginal solves.
func (c *MarginalCache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// TypeMarginal returns the memoized steady-state distribution of one
// server type, computing and caching it on the first request.
func (c *MarginalCache) TypeMarginal(p TypeParams, discipline RepairDiscipline) (linalg.Vector, error) {
	key := marginalKey{
		replicas: p.Replicas, stages: p.RepairStages,
		failure: p.FailureRate, repair: p.RepairRate,
		discipline: discipline,
	}
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := TypeMarginal(p, discipline)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v, nil
}

// EvaluateProductFormSolver is EvaluateProductForm with the per-type
// marginals served from cache. A nil cache computes every marginal
// afresh. The report's TypeMarginals are copies, so callers may modify
// them without corrupting the cache. The solver argument is ignored
// (every marginal is closed form or one GTH solve); it stays because
// bench/ calls this function by that signature.
func EvaluateProductFormSolver(params []TypeParams, discipline RepairDiscipline, buildJoint bool, cache *MarginalCache, _ ctmc.SolverStrategy) (*Report, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("avail: model needs at least one server type")
	}
	rep := &Report{Replicas: make([]int, len(params))}
	availability := 1.0
	caps := make([]int, len(params))
	for x, p := range params {
		var marginal linalg.Vector
		var err error
		if cache != nil {
			marginal, err = cache.TypeMarginal(p, discipline)
		} else {
			marginal, err = TypeMarginal(p, discipline)
		}
		if err != nil {
			return nil, fmt.Errorf("avail: type %d: %w", x, err)
		}
		if cache != nil {
			marginal = marginal.Clone()
		}
		rep.Replicas[x] = p.Replicas
		rep.TypeMarginals = append(rep.TypeMarginals, marginal)
		availability *= 1 - marginal[0]
		caps[x] = p.Replicas
	}
	rep.Availability = availability
	rep.Unavailability = 1 - availability
	rep.DowntimeHoursPerYear = rep.Unavailability * HoursPerYear

	if buildJoint {
		// Pre-flight the joint space before the O(Π(Y+1)) vector is
		// allocated: an adversarial configuration must fail here, typed,
		// not in the encoder's panic or the allocator.
		size, err := ctmc.StateSpaceSize(caps)
		if err != nil {
			return nil, err
		}
		if err := wfmserr.Default.CheckStates("avail", size); err != nil {
			return nil, err
		}
		enc, err := ctmc.NewStateEncoderChecked(caps)
		if err != nil {
			return nil, err
		}
		pi := linalg.NewVector(enc.Size())
		enc.Each(func(code int, x []int) {
			p := 1.0
			for t := range params {
				p *= rep.TypeMarginals[t][x[t]]
			}
			pi[code] = p
		})
		rep.StateProbs = pi
		rep.Encoder = enc
	}
	return rep, nil
}
