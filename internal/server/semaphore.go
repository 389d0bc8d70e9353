package server

import (
	"container/list"
	"context"
	"sync"
)

// semaphore is a weighted, FIFO-fair counting semaphore with context
// support — the one admission gate in front of the heavy endpoints.
// Its capacity is the server's total planner-worker budget
// (Options.Workers). Every planner run is sequential and holds one
// token; internal work (event ingestion, calibration, re-plans) takes
// one like any client, and a batch takes one per item it runs at once,
// so N concurrent recommendations never hold more worker slots than the
// machine was configured for.
//
// FIFO fairness matters here: a wide waiter (a batch wanting many
// tokens) must not be starved by a stream of narrow ones, so later
// arrivals queue behind it even when their smaller weight would fit.
type semaphore struct {
	size int

	mu      sync.Mutex
	cur     int
	waiters list.List // of *waiter, front = oldest
}

type waiter struct {
	n     int
	ready chan struct{} // closed when the tokens are granted
}

// newSemaphore returns a semaphore with the given capacity (minimum 1).
func newSemaphore(size int) *semaphore {
	if size < 1 {
		size = 1
	}
	return &semaphore{size: size}
}

// Acquire blocks until n tokens are available (n is clamped to the
// capacity, so a single oversized request degrades to exclusive access
// instead of deadlocking) or ctx is done, in which case it returns
// ctx.Err() without holding any tokens.
func (s *semaphore) Acquire(ctx context.Context, n int) error {
	if n < 1 {
		n = 1
	}
	if n > s.size {
		n = s.size
	}
	s.mu.Lock()
	if s.cur+n <= s.size && s.waiters.Len() == 0 {
		s.cur += n
		s.mu.Unlock()
		return nil
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: give the tokens back
			// (outside the lock — Release retakes it) and still report
			// the cancellation.
			s.mu.Unlock()
			s.Release(n)
		default:
			s.waiters.Remove(elem)
			s.mu.Unlock()
		}
		return ctx.Err()
	}
}

// Release returns n tokens (clamped like Acquire) and wakes queued
// waiters in FIFO order as long as their weights fit.
func (s *semaphore) Release(n int) {
	if n < 1 {
		n = 1
	}
	if n > s.size {
		n = s.size
	}
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		s.mu.Unlock()
		panic("server: semaphore released more than acquired")
	}
	for e := s.waiters.Front(); e != nil; {
		w := e.Value.(*waiter)
		if s.cur+w.n > s.size {
			break // FIFO: never let a narrower waiter jump the queue
		}
		s.cur += w.n
		next := e.Next()
		s.waiters.Remove(e)
		close(w.ready)
		e = next
	}
	s.mu.Unlock()
}

// Waiting returns the number of queued acquirers (for stats).
func (s *semaphore) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}

// InUse returns the number of tokens currently held (for stats).
func (s *semaphore) InUse() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

func (s *semaphore) stats(resp *StatsResponse) {
	resp.Admission = AdmissionStatsJSON{
		WorkerBudget: s.size,
		PerRequest:   1,
		InUse:        s.InUse(),
		Waiting:      s.Waiting(),
	}
}
