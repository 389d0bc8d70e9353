package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func mustAcquire(t *testing.T, s *semaphore, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Acquire(ctx, n); err != nil {
		t.Fatalf("Acquire(%d): %v", n, err)
	}
}

// postInBackground posts body to url on another goroutine; the reply
// (status -1 when the request itself fails) arrives on the channel.
func postInBackground(url string, body []byte) <-chan reply {
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			done <- reply{status: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		done <- reply{status: resp.StatusCode, body: raw}
	}()
	return done
}

type reply struct {
	status int
	body   []byte
}

// awaitQueued waits until one acquirer is queued on s, failing if the
// request whose reply arrives on done finished without queuing.
func awaitQueued(t *testing.T, s *semaphore, done <-chan reply) {
	t.Helper()
	for s.Waiting() != 1 {
		select {
		case r := <-done:
			t.Fatalf("request finished with status %d without queuing for a token: %s", r.status, r.body)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestSemaphoreFastPath(t *testing.T) {
	s := newSemaphore(4)
	mustAcquire(t, s, 2)
	mustAcquire(t, s, 2)
	if got := s.InUse(); got != 4 {
		t.Errorf("InUse = %d, want 4", got)
	}
	s.Release(2)
	s.Release(2)
	if got := s.InUse(); got != 0 {
		t.Errorf("InUse after release = %d, want 0", got)
	}
}

// TestSemaphoreFIFOFairness pins the anti-starvation property: a wide
// waiter at the head of the queue blocks later narrow waiters even when
// their weight would fit, and both are granted in arrival order once
// capacity frees up.
func TestSemaphoreFIFOFairness(t *testing.T) {
	s := newSemaphore(4)
	mustAcquire(t, s, 4)

	wideGranted := make(chan struct{})
	narrowGranted := make(chan struct{})
	go func() {
		if err := s.Acquire(context.Background(), 3); err == nil {
			close(wideGranted)
		}
	}()
	// Make sure the wide waiter is queued before the narrow one.
	for s.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		if err := s.Acquire(context.Background(), 1); err == nil {
			close(narrowGranted)
		}
	}()
	for s.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}

	// One free token fits the narrow waiter but not the wide head of the
	// queue — nobody may be granted.
	s.Release(1)
	select {
	case <-narrowGranted:
		t.Fatal("narrow waiter jumped the FIFO queue")
	case <-wideGranted:
		t.Fatal("wide waiter granted beyond capacity")
	case <-time.After(50 * time.Millisecond):
	}

	// Freeing the rest grants both, in order.
	s.Release(3)
	select {
	case <-wideGranted:
	case <-time.After(5 * time.Second):
		t.Fatal("wide waiter never granted")
	}
	select {
	case <-narrowGranted:
	case <-time.After(5 * time.Second):
		t.Fatal("narrow waiter never granted")
	}
	if got := s.InUse(); got != 4 {
		t.Errorf("InUse = %d, want 4 (3 wide + 1 narrow)", got)
	}
}

func TestSemaphoreAcquireCancellation(t *testing.T) {
	s := newSemaphore(2)
	mustAcquire(t, s, 2)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.Acquire(ctx, 1) }()
	for s.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Acquire never returned")
	}
	if got := s.Waiting(); got != 0 {
		t.Errorf("Waiting = %d after cancellation, want 0", got)
	}

	// The canceled waiter must not have leaked tokens.
	s.Release(2)
	mustAcquire(t, s, 2)
	s.Release(2)
}

// TestSemaphoreOversizedRequestClamps verifies an over-capacity request
// degrades to exclusive access instead of deadlocking.
func TestSemaphoreOversizedRequestClamps(t *testing.T) {
	s := newSemaphore(2)
	mustAcquire(t, s, 100)
	if got := s.InUse(); got != 2 {
		t.Errorf("InUse = %d, want 2 (clamped)", got)
	}
	s.Release(100)
	if got := s.InUse(); got != 0 {
		t.Errorf("InUse = %d after clamped release, want 0", got)
	}
}

// TestSemaphoreMixedBatchSingletonFIFO interleaves wide batch-style
// acquires with narrow singleton ones and requires strict arrival-order
// grants: a narrow singleton behind a wide batch waits for it (no
// starvation of wide waiters), and a wide batch behind singletons
// cannot leapfrog them either.
func TestSemaphoreMixedBatchSingletonFIFO(t *testing.T) {
	const capacity = 8
	s := newSemaphore(capacity)
	mustAcquire(t, s, capacity)

	// Queue, in order: batch(6), single(1), batch(8), single(1).
	weights := []int{6, 1, 8, 1}
	granted := make([]chan struct{}, len(weights))
	var order []int
	var mu sync.Mutex
	for i, n := range weights {
		granted[i] = make(chan struct{})
		i, n := i, n
		go func() {
			if err := s.Acquire(context.Background(), n); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			close(granted[i])
		}()
		// Serialize arrival so the FIFO order under test is deterministic.
		for s.Waiting() < i+1 {
			time.Sleep(time.Millisecond)
		}
	}

	// mustStay asserts none of the still-pending waiters got granted.
	mustStay := func(label string, pending ...int) {
		t.Helper()
		for _, i := range pending {
			select {
			case <-granted[i]:
				t.Fatalf("%s: waiter %d (weight %d) jumped the FIFO queue", label, i, weights[i])
			default:
			}
		}
		time.Sleep(50 * time.Millisecond)
		for _, i := range pending {
			select {
			case <-granted[i]:
				t.Fatalf("%s: waiter %d (weight %d) jumped the FIFO queue", label, i, weights[i])
			default:
			}
		}
	}
	mustGrant := func(i int) {
		t.Helper()
		select {
		case <-granted[i]:
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d (weight %d) never granted", i, weights[i])
		}
	}

	// Two free tokens fit either singleton but not the batch at the
	// head: nobody may be granted.
	s.Release(2)
	mustStay("2 free, batch(6) at head", 0, 1, 2, 3)

	// Four more free the head batch exactly; the singleton behind it
	// must keep waiting (0 tokens left).
	s.Release(4)
	mustGrant(0)
	mustStay("batch(6) granted, 0 free", 1, 2, 3)

	// One token admits the singleton now at the head, and only it.
	s.Release(1)
	mustGrant(1)
	mustStay("singleton granted, 0 free", 2, 3)

	// Releasing both grants leaves 7 free: the wide batch(8) at the head
	// still does not fit, and the trailing singleton — which would fit —
	// must not leapfrog it.
	s.Release(weights[0])
	s.Release(weights[1])
	mustStay("7 free, batch(8) at head", 2, 3)

	// The final token completes the batch; its release admits the last
	// singleton.
	s.Release(1)
	mustGrant(2)
	s.Release(weights[2])
	mustGrant(3)
	s.Release(weights[3])

	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want strict FIFO %v", order, []int{0, 1, 2, 3})
		}
	}
	if s.InUse() != 0 || s.Waiting() != 0 {
		t.Errorf("drained semaphore reports InUse=%d Waiting=%d", s.InUse(), s.Waiting())
	}
}

// TestSemaphoreConcurrentLoad hammers the semaphore with concurrent
// weighted acquirers and checks the capacity invariant throughout.
func TestSemaphoreConcurrentLoad(t *testing.T) {
	const capacity = 4
	s := newSemaphore(capacity)
	var (
		mu   sync.Mutex
		held int
		peak int
	)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		n := 1 + i%capacity
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if err := s.Acquire(context.Background(), n); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			held += n
			if held > peak {
				peak = held
			}
			if held > capacity {
				mu.Unlock()
				t.Errorf("capacity exceeded: %d tokens held", held)
				s.Release(n)
				return
			}
			mu.Unlock()
			mu.Lock()
			held -= n
			mu.Unlock()
			s.Release(n)
		}(n)
	}
	wg.Wait()
	if s.InUse() != 0 || s.Waiting() != 0 {
		t.Errorf("drained semaphore reports InUse=%d Waiting=%d", s.InUse(), s.Waiting())
	}
	if peak == 0 {
		t.Error("no acquisition observed")
	}
}

// TestInternalWorkTakesOneToken pins the weight of internal work: event
// ingestion queues while every token is held and runs as soon as one
// comes back, beside requests holding all the others.
func TestInternalWorkTakesOneToken(t *testing.T) {
	_, _, doc := ingestSystem(t)
	s, ts := newTestServer(t, Options{Workers: 3})
	var as AssessResponse
	if status := postJSON(t, ts.URL+"/v1/assess", AssessRequest{
		System: doc, Config: []int{2}, Goals: GoalsJSON{MaxUnavailability: 1e-2},
	}, &as); status != http.StatusOK {
		t.Fatalf("assess status = %d", status)
	}

	var events bytes.Buffer
	enc := json.NewEncoder(&events)
	for _, rec := range ingestRecords(2, 0) {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustAcquire(t, s.sem, 3)
	done := postInBackground(ts.URL+"/v1/events?fingerprint="+as.Fingerprint, events.Bytes())
	awaitQueued(t, s.sem, done)
	s.sem.Release(1)
	if r := <-done; r.status != http.StatusOK {
		t.Fatalf("events with one token free: status %d, want 200: %s", r.status, r.body)
	}
	// The handler hands its token back just after its reply is written.
	for deadline := time.Now().Add(10 * time.Second); s.sem.InUse() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("InUse = %d after the events, want the 2 still held", s.sem.InUse())
		}
	}
	s.sem.Release(2)
}

// TestRecommendDeadlineWhileQueued: a request whose deadline passes
// while it waits for a token answers 504 deadline_exceeded and leaves
// the queue, instead of hanging.
func TestRecommendDeadlineWhileQueued(t *testing.T) {
	doc, _ := paperSystem(t)
	s, ts := newTestServer(t, Options{Workers: 2})
	mustAcquire(t, s.sem, 2)
	defer s.sem.Release(2)

	status, e := postRaw(t, ts.URL+"/v1/recommend", mustJSON(t, RecommendRequest{
		System: doc, Goals: GoalsJSON{MaxUnavailability: 1e-5}, TimeoutMillis: 30,
	}))
	if status != http.StatusGatewayTimeout || e.Code != "deadline_exceeded" {
		t.Fatalf("status/code = %d/%q, want 504/deadline_exceeded (%s)", status, e.Code, e.Error)
	}
	if got := s.sem.Waiting(); got != 0 {
		t.Errorf("Waiting = %d after the deadline, want 0", got)
	}
}
