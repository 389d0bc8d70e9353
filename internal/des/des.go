// Package des is a small discrete-event simulation kernel: a virtual
// clock, an event heap with cancellation, and statistics collectors. The
// WFMS simulator (package sim) runs on it; the analytic models are
// validated against measurements taken from such simulations, standing in
// for the testbed measurements of the paper's Section 8.
//
// Events fire in strict (time, seq) order, seq counting scheduling
// calls, so simultaneous events fire in the order they were scheduled.
// Any queue that keeps that order runs a simulation identically.
package des

import (
	"fmt"
	"math"
)

// Event is the handle of an event scheduled by Schedule, the one way to
// cancel it before it fires.
type Event struct {
	done bool // fired or cancelled
}

// entry is one queued event, its ordering keys inline so that sifting
// never dereferences a handle.
type entry struct {
	time float64
	seq  uint64
	fn   func()
	ev   *Event // nil for handle-free events (At, After)
}

func (a *entry) before(b *entry) bool {
	return a.time < b.time || a.time == b.time && a.seq < b.seq
}

// Simulator advances a virtual clock through scheduled events.
type Simulator struct {
	now   float64
	queue []entry // binary min-heap in (time, seq) order
	seq   uint64
	fired uint64
	// cancelled counts the queued events whose handle was cancelled;
	// they stay queued until they reach the head and are dropped there.
	cancelled int
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled, uncancelled events.
func (s *Simulator) Pending() int { return len(s.queue) - s.cancelled }

// Schedule runs fn after the given delay and returns a handle that can
// cancel it. It panics on negative or NaN delays, which always indicate
// a simulation bug.
func (s *Simulator) Schedule(delay float64, fn func()) *Event {
	e := &Event{}
	s.push(s.after(delay), fn, e)
	return e
}

// After is Schedule for an event nobody will cancel: it hands out no
// handle, so the event lives in its queue slot alone and costs no
// allocation.
func (s *Simulator) After(delay float64, fn func()) {
	s.push(s.after(delay), fn, nil)
}

func (s *Simulator) after(delay float64) float64 {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: scheduling with invalid delay %v", delay))
	}
	return s.now + delay
}

// At runs fn at the given absolute time, which must not be in the past.
// Like After, it hands out no handle.
func (s *Simulator) At(t float64, fn func()) {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: scheduling at %v with clock at %v", t, s.now))
	}
	s.push(t, fn, nil)
}

// Cancel prevents a scheduled event from firing. Cancelling an already
// fired or cancelled event is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.done {
		return
	}
	e.done = true
	s.cancelled++
}

// Step fires the next event, returning false when none remain.
func (s *Simulator) Step() bool {
	if !s.live() {
		return false
	}
	s.fire(s.pop())
	return true
}

// RunUntil fires events until the clock would pass horizon or no events
// remain; the clock is left at min(horizon, last event time) and events
// scheduled beyond the horizon stay pending.
func (s *Simulator) RunUntil(horizon float64) {
	s.RunUntilCapped(horizon, math.MaxUint64)
}

// RunUntilCapped is RunUntil with a budget on fired events (counted over
// the simulator's lifetime, compared against Fired). It returns true if
// the horizon was reached within the budget; on false the clock stays at
// the last fired event so the caller can diagnose the runaway.
func (s *Simulator) RunUntilCapped(horizon float64, maxFired uint64) bool {
	for s.live() && s.queue[0].time <= horizon {
		if s.fired >= maxFired {
			return false
		}
		s.fire(s.pop())
	}
	if s.now < horizon {
		s.now = horizon
	}
	return true
}

// Run fires events until none remain or maxEvents have fired.
// It returns the number of events fired by this call.
func (s *Simulator) Run(maxEvents uint64) uint64 {
	var fired uint64
	for fired < maxEvents && s.Step() {
		fired++
	}
	return fired
}

// live drops cancelled events from the head of the queue and reports
// whether an event remains.
func (s *Simulator) live() bool {
	for len(s.queue) > 0 && s.queue[0].ev != nil && s.queue[0].ev.done {
		s.pop()
		s.cancelled--
	}
	return len(s.queue) > 0
}

func (s *Simulator) fire(e entry) {
	if e.ev != nil {
		e.ev.done = true
	}
	s.now = e.time
	s.fired++
	e.fn()
}

func (s *Simulator) push(t float64, fn func(), ev *Event) {
	e := entry{time: t, seq: s.seq, fn: fn, ev: ev}
	s.seq++
	s.queue = append(s.queue, e)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

func (s *Simulator) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the callback's references
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}
