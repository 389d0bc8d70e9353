// Package performa assesses and plans configurations of distributed
// workflow management systems (WFMSs), reproducing the models of
// Gillmann, Weissenfels, Weikum, and Kraiss: "Performance and
// Availability Assessment for the Configuration of Distributed Workflow
// Management Systems" (EDBT 2000).
//
// A WFMS is modeled as a set of abstract server types — one communication
// server (ORB), workflow engines, and application servers — each
// replicated Y_x times (the configuration). Workflow types are specified
// as statecharts, mapped onto absorbing continuous-time Markov chains,
// and analyzed for turnaround time and per-server-type load; an M/G/1
// model yields request waiting times, a system-state CTMC yields
// availability, and a Markov reward model combines the two into
// performability: the expected waiting time with failures and degraded
// modes taken into account. A greedy planner searches for the cheapest
// configuration meeting waiting-time and availability goals.
//
// Quick start:
//
//	env := workload.PaperEnvironment()
//	sys, _ := performa.NewSystem(env, workload.EPWorkflow(1.0))
//	as, _ := sys.Assess(performa.Configuration{Replicas: []int{2, 2, 3}})
//	fmt.Println(as.Availability.DowntimeHoursPerYear, as.Performability.MaxWaiting())
//
// The subpackages remain importable for fine-grained control:
// internal/spec (workflow model), internal/perf, internal/avail,
// internal/performability (the three analytic models), internal/config
// (the planner), internal/sim (the validating discrete-event simulator),
// and internal/engine (a runnable mini-WFMS producing audit trails for
// internal/calibrate).
package performa

import (
	"fmt"
	"io"

	"performa/internal/avail"
	"performa/internal/config"
	"performa/internal/perf"
	"performa/internal/performability"
	"performa/internal/sim"
	"performa/internal/spec"
	"performa/internal/wfjson"
)

// Re-exported types, so typical use needs only this package plus
// internal/workload or hand-built specs.
type (
	// Configuration is a replication vector with optional co-location.
	Configuration = perf.Config
	// Goals are planning targets (max waiting time, max unavailability).
	Goals = config.Goals
	// Constraints bound the planner's search space.
	Constraints = config.Constraints
	// PlannerOptions tune the planner: the performability evaluation,
	// the greedy iteration bound and an optional shared evaluator.
	// Every planner runs sequentially; Workers is ignored.
	PlannerOptions = config.Options
	// Recommendation is the planner's output.
	Recommendation = config.Recommendation
	// SimParams configures a validation simulation.
	SimParams = sim.Params
	// SimResult reports simulation measurements.
	SimResult = sim.Result
)

// System is an assessable WFMS: a server environment plus a workflow mix
// with arrival rates. Building a System maps every workflow onto its
// stochastic model once; assessments of different configurations then
// reuse the models.
type System struct {
	env      *spec.Environment
	models   []*spec.Model
	analysis *perf.Analysis
}

// NewSystem validates the workflows against the environment and builds
// their stochastic models.
func NewSystem(env *spec.Environment, workflows ...*spec.Workflow) (*System, error) {
	if env == nil {
		return nil, fmt.Errorf("performa: nil environment")
	}
	if len(workflows) == 0 {
		return nil, fmt.Errorf("performa: at least one workflow required")
	}
	models := make([]*spec.Model, 0, len(workflows))
	for _, w := range workflows {
		m, err := spec.Build(w, env)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	analysis, err := perf.NewAnalysis(env, models)
	if err != nil {
		return nil, err
	}
	return &System{env: env, models: models, analysis: analysis}, nil
}

// Env returns the system's environment.
func (s *System) Env() *spec.Environment { return s.env }

// Models returns the workflow models in workflow order.
func (s *System) Models() []*spec.Model { return s.models }

// Analysis returns the aggregated performance analysis.
func (s *System) Analysis() *perf.Analysis { return s.analysis }

// AssessOptions tune an assessment.
type AssessOptions struct {
	// Performability selects the saturation policy and repair
	// discipline; the zero value is the literal Strict model. Most
	// callers want performability.ExcludeDown (used by DefaultAssess).
	Performability performability.Options
	// SkipPerformability disables the (comparatively expensive)
	// per-system-state evaluation.
	SkipPerformability bool
}

// DefaultAssessOptions returns the recommended assessment options: the
// ExcludeDown saturation policy, so the waiting-time metric describes the
// operational states while downtime is reported separately through the
// availability model.
func DefaultAssessOptions() AssessOptions {
	return AssessOptions{
		Performability: performability.Options{Policy: performability.ExcludeDown},
	}
}

// Assessment bundles the three model evaluations of one configuration.
type Assessment struct {
	// Performance is the failure-free performance report (Section 4).
	Performance *perf.Report
	// Availability is the availability report (Section 5).
	Availability *avail.Report
	// Performability is the combined model (Section 6); nil when
	// skipped.
	Performability *performability.Result
}

// Assess evaluates one configuration under the default options.
func (s *System) Assess(cfg Configuration) (*Assessment, error) {
	return s.AssessWith(cfg, DefaultAssessOptions())
}

// AssessWith evaluates one configuration.
func (s *System) AssessWith(cfg Configuration, opts AssessOptions) (*Assessment, error) {
	perfRep, err := s.analysis.Evaluate(cfg)
	if err != nil {
		return nil, err
	}
	params, err := avail.ParamsFromEnvironment(s.env, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	availRep, err := avail.EvaluateProductForm(params, opts.Performability.Discipline, false)
	if err != nil {
		return nil, err
	}
	out := &Assessment{Performance: perfRep, Availability: availRep}
	if !opts.SkipPerformability && len(cfg.Colocated) == 0 {
		pres, err := performability.Evaluate(s.analysis, cfg, opts.Performability)
		if err != nil {
			return nil, err
		}
		out.Performability = pres
	}
	return out, nil
}

// Plan searches for a near-minimum-cost configuration meeting the goals,
// using the paper's greedy heuristic.
func (s *System) Plan(goals Goals, cons Constraints, opts PlannerOptions) (*Recommendation, error) {
	return config.Greedy(s.analysis, goals, cons, opts)
}

// PlanExhaustive finds the true minimum-cost configuration by exhaustive
// search, the planner's optimality baseline.
func (s *System) PlanExhaustive(goals Goals, cons Constraints, opts PlannerOptions) (*Recommendation, error) {
	return config.Exhaustive(s.analysis, goals, cons, opts)
}

// PlanBranchAndBound finds the true minimum-cost configuration by
// depth-first search with cost and feasibility pruning — the same
// optimum as PlanExhaustive with far fewer evaluations.
func (s *System) PlanBranchAndBound(goals Goals, cons Constraints, opts PlannerOptions) (*Recommendation, error) {
	return config.BranchAndBound(s.analysis, goals, cons, opts)
}

// Simulate runs the discrete-event simulator over this system's workflow
// mix, filling in the environment and models.
func (s *System) Simulate(p SimParams) (*SimResult, error) {
	p.Env = s.env
	p.Models = s.models
	return sim.Run(p)
}

// TurnaroundQuantile returns the time t with P(turnaround of workflow i
// ≤ t) ≈ q, from the uniformized transient analysis of the workflow's
// CTMC — the percentile-level view the mean-value models don't give.
func (s *System) TurnaroundQuantile(i int, q float64) (float64, error) {
	if i < 0 || i >= len(s.models) {
		return 0, fmt.Errorf("performa: workflow index %d out of range [0,%d)", i, len(s.models))
	}
	return s.models[i].TurnaroundQuantile(q)
}

// ExportJSON writes the system's environment and workflows as a wfjson
// document consumable by cmd/wfmsconfig and cmd/wfmssim via -spec.
func (s *System) ExportJSON(w io.Writer) error {
	flows := make([]*spec.Workflow, len(s.models))
	for i, m := range s.models {
		flows[i] = m.Workflow
	}
	return wfjson.Encode(w, s.env, flows)
}
