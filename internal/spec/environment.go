// Package spec defines the workflow-type and server-environment model and
// implements the paper's mapping from statechart workflow specifications
// onto continuous-time Markov chains (Sections 3 and 4.2.2), including
// the hierarchical treatment of nested and parallel subworkflows.
package spec

import (
	"fmt"
	"math"
)

// ServerKind classifies the abstract server types of the architectural
// model (Section 2).
type ServerKind int

const (
	// Communication is the ORB-style communication server type.
	Communication ServerKind = iota
	// Engine is a workflow-engine type.
	Engine
	// Application is an application-server type.
	Application
	// Directory is a directory/naming service, one of the additional
	// server types the paper notes the model extends to (Section 2).
	Directory
	// Worklist is a worklist-management service for interactive
	// activities, the other extension Section 2 names.
	Worklist
)

// String returns the kind's name.
func (k ServerKind) String() string {
	switch k {
	case Communication:
		return "communication"
	case Engine:
		return "engine"
	case Application:
		return "application"
	case Directory:
		return "directory"
	case Worklist:
		return "worklist"
	default:
		return fmt.Sprintf("ServerKind(%d)", int(k))
	}
}

// ServerType describes one abstract server type x of the WFMS: its
// service-time moments (the only performance characteristics the M/G/1
// model of Section 4.4 needs) and its failure and repair rates (Section
// 5.1). All times share one time unit; the examples and benchmarks use
// seconds.
type ServerType struct {
	// Name identifies the type, e.g. "orb", "engine-billing".
	Name string
	// Kind classifies the type.
	Kind ServerKind
	// MeanService is b_x, the mean service time per request.
	MeanService float64
	// ServiceSecondMoment is b_x^(2), the second moment of the service
	// time. For an exponential service time it is 2·b_x².
	ServiceSecondMoment float64
	// FailureRate is λ_x, the per-server failure rate (1/MTTF).
	FailureRate float64
	// RepairRate is μ_x, the per-server repair rate (1/MTTR).
	RepairRate float64
}

// Validate reports the first reason the type cannot be part of an
// environment: no name, a non-positive mean service time, a second
// moment below the squared mean, a negative rate, or failures without
// repair.
func (s ServerType) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: server type has no name")
	}
	if !(s.MeanService > 0) {
		return fmt.Errorf("spec: server type %q: mean service time %v must be positive", s.Name, s.MeanService)
	}
	if s.ServiceSecondMoment < s.MeanService*s.MeanService {
		return fmt.Errorf("spec: server type %q: second moment %v below squared mean %v (impossible distribution)",
			s.Name, s.ServiceSecondMoment, s.MeanService*s.MeanService)
	}
	if s.FailureRate < 0 || math.IsNaN(s.FailureRate) {
		return fmt.Errorf("spec: server type %q: failure rate %v must be nonnegative", s.Name, s.FailureRate)
	}
	if s.FailureRate > 0 && !(s.RepairRate > 0) {
		return fmt.Errorf("spec: server type %q: failing servers need a positive repair rate, got %v", s.Name, s.RepairRate)
	}
	if s.RepairRate < 0 {
		return fmt.Errorf("spec: server type %q: repair rate %v must be nonnegative", s.Name, s.RepairRate)
	}
	return nil
}

// Environment is the universe of server types of one WFMS deployment.
// The index of a type in Types is the server-type index x used by all
// model vectors and matrices.
type Environment struct {
	types []ServerType
	index map[string]int
}

// NewEnvironment validates the server types and returns the environment.
func NewEnvironment(types ...ServerType) (*Environment, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("spec: environment needs at least one server type")
	}
	env := &Environment{types: append([]ServerType(nil), types...), index: make(map[string]int, len(types))}
	for i, s := range env.types {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := env.index[s.Name]; dup {
			return nil, fmt.Errorf("spec: duplicate server type %q", s.Name)
		}
		env.index[s.Name] = i
	}
	return env, nil
}

// MustEnvironment is NewEnvironment that panics on error, for statically
// known environments.
func MustEnvironment(types ...ServerType) *Environment {
	env, err := NewEnvironment(types...)
	if err != nil {
		panic(err)
	}
	return env
}

// K returns the number of server types.
func (e *Environment) K() int { return len(e.types) }

// Type returns the server type with index x.
func (e *Environment) Type(x int) ServerType { return e.types[x] }

// Types returns a copy of the server-type list.
func (e *Environment) Types() []ServerType {
	return append([]ServerType(nil), e.types...)
}

// Index returns the index of the named type.
func (e *Environment) Index(name string) (int, bool) {
	i, ok := e.index[name]
	return i, ok
}

// ExpServiceMoments is a convenience helper returning the two moments of
// an exponential service time with the given mean, the default service
// model used throughout the examples.
func ExpServiceMoments(mean float64) (b, b2 float64) {
	return mean, 2 * mean * mean
}
