// Package engine is a runnable miniature of the distributed WFMS of
// Section 2: workflow engines interpret statechart specifications,
// automated activities are dispatched through an ORB-style message bus to
// application-server worker pools, interactive activities go to a
// worklist where simulated users complete them, and every step emits
// audit-trail records (package audit) that the calibration component
// (package calibrate) consumes.
//
// The runtime executes concurrently on goroutines with wall-clock
// durations scaled down by TimeScale, so a workflow whose activities take
// seconds in the model runs in milliseconds in tests while producing
// audit trails stamped in model time.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"performa/internal/audit"
	"performa/internal/dist"
	"performa/internal/spec"
	"performa/internal/statechart"
)

// Options configures a runtime.
type Options struct {
	// TimeScale is the wall-clock seconds per model time unit. The
	// default 0.001 runs a 1-unit activity in one millisecond.
	TimeScale float64
	// AppWorkers bounds concurrent automated-activity executions per
	// application server type (the replica count of that type); zero
	// entries default to 1. Keyed by server type name.
	AppWorkers map[string]int
	// Users is the number of simulated worklist users completing
	// interactive activities; zero means 4.
	Users int
	// Seed seeds the one RNG every instance goroutine draws branch
	// choices and durations from, under a lock and in scheduler order:
	// it fixes the stream of draws, not which instance gets which, so
	// two runs at one seed follow different paths. Tests on a trail must
	// hold for any sample of the specified distributions.
	Seed uint64
	// ServerReplicas sizes the per-server-type request pools: each
	// service request a running activity emits must hold one of the
	// type's replica slots for its service duration, and the audit
	// trail records the measured queueing delay. Zero or missing
	// entries mean 16 slots (effectively uncontended), so trails carry
	// realistic waiting times only for the types a study deliberately
	// constrains. Keyed by server type name.
	ServerReplicas map[string]int
}

func (o Options) withDefaults() Options {
	if o.TimeScale <= 0 {
		o.TimeScale = 0.001
	}
	if o.Users <= 0 {
		o.Users = 4
	}
	return o
}

// Runtime executes workflow instances and records their audit trail.
type Runtime struct {
	env   *spec.Environment
	opts  Options
	trail *audit.Trail

	start    time.Time
	instSeq  atomic.Uint64
	rngMu    sync.Mutex
	rng      *dist.RNG
	appPools map[string]chan struct{} // semaphore per application type
	svcPools map[string]chan struct{} // replica slots per server type
	userSem  chan struct{}
}

// New builds a runtime over the environment.
func New(env *spec.Environment, opts Options) *Runtime {
	opts = opts.withDefaults()
	rt := &Runtime{
		env:      env,
		opts:     opts,
		trail:    audit.NewTrail(),
		start:    time.Now(),
		rng:      dist.NewRNG(opts.Seed),
		appPools: map[string]chan struct{}{},
		userSem:  make(chan struct{}, opts.Users),
	}
	rt.svcPools = make(map[string]chan struct{}, env.K())
	for x := 0; x < env.K(); x++ {
		st := env.Type(x)
		if st.Kind == spec.Application {
			n := opts.AppWorkers[st.Name]
			if n <= 0 {
				n = 1
			}
			rt.appPools[st.Name] = make(chan struct{}, n)
		}
		slots := opts.ServerReplicas[st.Name]
		if slots <= 0 {
			slots = 16
		}
		rt.svcPools[st.Name] = make(chan struct{}, slots)
	}
	return rt
}

// Trail returns the audit trail collected so far.
func (rt *Runtime) Trail() *audit.Trail { return rt.trail }

// now returns the current model time.
func (rt *Runtime) now() float64 {
	return time.Since(rt.start).Seconds() / rt.opts.TimeScale
}

// sleepModel blocks for the given model-time duration.
func (rt *Runtime) sleepModel(d float64) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(d * rt.opts.TimeScale * float64(time.Second)))
}

func (rt *Runtime) record(r audit.Record) {
	r.Time = rt.now()
	rt.trail.Append(r)
}

// random runs fn under the RNG lock and returns its result, keeping the
// concurrent instance goroutines deterministic enough for statistics
// while sharing one seeded stream.
func (rt *Runtime) random(fn func(r *dist.RNG) float64) float64 {
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return fn(rt.rng)
}

// RunInstances executes n instances of the workflow concurrently and
// blocks until all complete or the context is cancelled. It returns the
// number of instances completed.
func (rt *Runtime) RunInstances(ctx context.Context, w *spec.Workflow, n int, interarrival float64) (int, error) {
	if err := w.Validate(rt.env); err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.runInstance(ctx, w); err == nil {
				completed.Add(1)
			}
		}()
		if interarrival > 0 && i < n-1 {
			rt.sleepModel(rt.random(func(r *dist.RNG) float64 { return r.Exp(1 / interarrival) }))
		}
	}
	wg.Wait()
	return int(completed.Load()), ctx.Err()
}

// runInstance executes one workflow instance.
func (rt *Runtime) runInstance(ctx context.Context, w *spec.Workflow) error {
	id := rt.instSeq.Add(1)
	rt.record(audit.Record{Kind: audit.InstanceStarted, Workflow: w.Name, Instance: id})
	vars := newVarStore()
	err := rt.runChart(ctx, w, w.Chart, id, vars)
	if err != nil {
		return err
	}
	rt.record(audit.Record{Kind: audit.InstanceCompleted, Workflow: w.Name, Instance: id})
	return nil
}

// varStore holds the instance's condition variables (the C part of the
// ECA rules), shared across orthogonal components.
type varStore struct {
	mu   sync.Mutex
	vars map[string]bool
}

func newVarStore() *varStore { return &varStore{vars: map[string]bool{}} }

func (v *varStore) set(name string, val bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.vars[name] = val
}

// known reports whether the variable has been set, and its value.
func (v *varStore) known(name string) (val, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	val, ok = v.vars[name]
	return val, ok
}

// runChart interprets one chart level.
func (rt *Runtime) runChart(ctx context.Context, w *spec.Workflow, chart *statechart.Chart, id uint64, vars *varStore) error {
	cur := chart.Initial
	const maxSteps = 1_000_000
	for step := 0; ; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if step > maxSteps {
			return fmt.Errorf("engine: instance %d exceeded %d steps in chart %q", id, maxSteps, chart.Name)
		}
		state := chart.States[cur]
		rt.record(audit.Record{Kind: audit.StateEntered, Workflow: w.Name, Instance: id, Chart: chart.Name, State: cur})

		switch {
		case state.Activity != "":
			if err := rt.executeActivity(ctx, w, state, id); err != nil {
				return err
			}
			// Completion sets the <activity>_DONE condition the
			// paper's charts synchronize on.
			vars.set(state.Activity+"_DONE", true)
		case len(state.Subcharts) > 0:
			// Orthogonal components: run all subcharts in parallel
			// and join on their final states.
			var wg sync.WaitGroup
			errs := make([]error, len(state.Subcharts))
			for i, sub := range state.Subcharts {
				wg.Add(1)
				go func(i int, sub *statechart.Chart) {
					defer wg.Done()
					errs[i] = rt.runChart(ctx, w, sub, id, vars)
				}(i, sub)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
		}

		rt.record(audit.Record{Kind: audit.StateLeft, Workflow: w.Name, Instance: id, Chart: chart.Name, State: cur})
		if cur == chart.Final {
			return nil
		}
		next, err := rt.fireTransition(chart, cur, vars)
		if err != nil {
			return err
		}
		cur = next
	}
}

// fireTransition picks the next state: transitions whose condition
// variable is known false are disabled; among the enabled ones the choice
// follows the (renormalized) branching probabilities, and the chosen
// transition's actions execute.
func (rt *Runtime) fireTransition(chart *statechart.Chart, from string, vars *varStore) (string, error) {
	out := chart.Outgoing(from)
	var enabled []*statechart.Transition
	var total float64
	for _, t := range out {
		if t.Cond != "" {
			name, want := t.Cond, true
			if name[0] == '!' {
				name, want = name[1:], false
			}
			if val, ok := vars.known(name); ok && val != want {
				continue // condition known to block this transition
			}
		}
		enabled = append(enabled, t)
		total += t.Prob
	}
	if len(enabled) == 0 || total <= 0 {
		return "", fmt.Errorf("engine: no enabled transition out of state %q in chart %q", from, chart.Name)
	}
	u := rt.random(func(r *dist.RNG) float64 { return r.Float64() }) * total
	var cum float64
	chosen := enabled[len(enabled)-1]
	for _, t := range enabled {
		cum += t.Prob
		if u < cum {
			chosen = t
			break
		}
	}
	for _, a := range chosen.Actions {
		switch a.Kind {
		case statechart.ActionSetTrue:
			vars.set(a.Target, true)
		case statechart.ActionSetFalse:
			vars.set(a.Target, false)
		}
		// ActionStart and ActionRaise are handled implicitly: entering
		// the target state starts its activity, and events are not
		// needed by the probabilistic interpreter.
	}
	return chosen.To, nil
}

// executeActivity performs one activity: it acquires an application
// worker (automated) or a user (interactive), holds it for the sampled
// duration, and emits the service requests of the activity's load vector.
func (rt *Runtime) executeActivity(ctx context.Context, w *spec.Workflow, state *statechart.State, id uint64) error {
	prof := w.Profiles[state.Activity]
	rt.record(audit.Record{Kind: audit.ActivityStarted, Workflow: w.Name, Instance: id, Activity: state.Activity})

	var sem chan struct{}
	if state.Interactive {
		sem = rt.userSem
	} else {
		sem = rt.appSemFor(prof)
	}
	if sem != nil {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Exponentially distributed activity duration around the profile
	// mean, like the CTMC residence times of the model.
	d := rt.random(func(r *dist.RNG) float64 { return r.Exp(1 / prof.MeanDuration) })
	rt.sleepModel(d)

	// Execute the service requests the activity induced: each request
	// queues for one of its server type's replica slots, holds it for
	// the sampled service time, and the measured queueing delay goes
	// into the audit trail. Requests run concurrently alongside the
	// activity and join before the activity completes.
	var reqs sync.WaitGroup
	for typeName, load := range prof.Load {
		x, ok := rt.env.Index(typeName)
		if !ok {
			continue
		}
		st := rt.env.Type(x)
		n := int(load)
		if frac := load - float64(n); frac > 0 {
			if rt.random(func(r *dist.RNG) float64 { return r.Float64() }) < frac {
				n++
			}
		}
		for j := 0; j < n; j++ {
			reqs.Add(1)
			go func(typeName string, st spec.ServerType) {
				defer reqs.Done()
				rt.serveRequest(ctx, w, id, state.Activity, typeName, st)
			}(typeName, st)
		}
	}
	reqs.Wait()

	rt.record(audit.Record{Kind: audit.ActivityCompleted, Workflow: w.Name, Instance: id, Activity: state.Activity})
	return nil
}

// serveRequest processes one service request against a server type's
// replica pool: wait for a slot, hold it for the service time, record
// both durations (in model time) in the audit trail.
func (rt *Runtime) serveRequest(ctx context.Context, w *spec.Workflow, id uint64, activity, typeName string, st spec.ServerType) {
	queuedAt := rt.now()
	pool := rt.svcPools[typeName]
	select {
	case pool <- struct{}{}:
	case <-ctx.Done():
		return
	}
	waiting := rt.now() - queuedAt
	svc := rt.random(func(r *dist.RNG) float64 { return r.Exp(1 / st.MeanService) })
	rt.sleepModel(svc)
	<-pool
	rt.record(audit.Record{
		Kind:       audit.ServiceRequest,
		Workflow:   w.Name,
		Instance:   id,
		Activity:   activity,
		ServerType: typeName,
		Waiting:    waiting,
		Service:    svc,
	})
}

// appSemFor finds the application pool the activity runs on: the first
// application server type in its load vector, if any.
func (rt *Runtime) appSemFor(prof spec.ActivityProfile) chan struct{} {
	for typeName := range prof.Load {
		if x, ok := rt.env.Index(typeName); ok && rt.env.Type(x).Kind == spec.Application {
			return rt.appPools[typeName]
		}
	}
	return nil
}
