package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
	if s.Fired() != 3 {
		t.Errorf("fired = %d", s.Fired())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	s := New()
	var times []float64
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(2, func() { times = append(times, s.Now()) })
	})
	s.Run(100)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.Run(100)
	if fired {
		t.Error("cancelled event fired")
	}
	// Double cancel and cancel after pop are no-ops.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(1, func() { order = append(order, 1) })
	e := s.Schedule(2, func() { order = append(order, 2) })
	s.Schedule(3, func() { order = append(order, 3) })
	s.Cancel(e)
	s.Run(100)
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	s := New()
	var fired []float64
	s.Schedule(1, func() { fired = append(fired, s.Now()) })
	s.Schedule(5, func() { fired = append(fired, s.Now()) })
	s.RunUntil(3)
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3 (advanced to horizon)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.RunUntil(10)
	if len(fired) != 2 || s.Now() != 10 {
		t.Errorf("fired = %v, clock = %v", fired, s.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	s := New()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		s.Schedule(1, rearm)
	}
	s.Schedule(1, rearm)
	if got := s.Run(10); got != 10 {
		t.Errorf("Run returned %d", got)
	}
	if count != 10 {
		t.Errorf("count = %d", count)
	}
}

func TestInvalidSchedulesPanic(t *testing.T) {
	s := New()
	for i, f := range []func(){
		func() { s.Schedule(-1, func() {}) },
		func() { s.Schedule(math.NaN(), func() {}) },
		func() { s.At(-1, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTallyMoments(t *testing.T) {
	var ta Tally
	if !math.IsNaN(ta.Mean()) || !math.IsNaN(ta.Variance()) || !math.IsNaN(ta.Min()) || !math.IsNaN(ta.Max()) {
		t.Error("empty tally should report NaN")
	}
	for _, x := range []float64{1, 2, 3, 4} {
		ta.Add(x)
	}
	if ta.N() != 4 || ta.Mean() != 2.5 {
		t.Errorf("N=%d mean=%v", ta.N(), ta.Mean())
	}
	if got := ta.SecondMoment(); got != 7.5 {
		t.Errorf("second moment = %v, want 7.5", got)
	}
	if got := ta.Variance(); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("variance = %v, want 5/3", got)
	}
	if ta.Min() != 1 || ta.Max() != 4 {
		t.Errorf("min/max = %v/%v", ta.Min(), ta.Max())
	}
	if got := ta.StdErr(); math.Abs(got-math.Sqrt(5.0/3/4)) > 1e-12 {
		t.Errorf("stderr = %v", got)
	}
	ta.Reset()
	if ta.N() != 0 {
		t.Error("reset failed")
	}
}

func TestTallyConstantDataStdErr(t *testing.T) {
	var ta Tally
	for i := 0; i < 1000; i++ {
		ta.Add(1e8) // large constant values stress cancellation
	}
	if se := ta.StdErr(); math.IsNaN(se) || se > 1 {
		t.Errorf("stderr = %v on constant data", se)
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	if !math.IsNaN(w.Average(10)) {
		t.Error("unstarted average should be NaN")
	}
	w.Set(0, 1) // value 1 on [0,4)
	w.Set(4, 3) // value 3 on [4,10)
	if got := w.Average(10); math.Abs(got-(4*1+6*3)/10.0) > 1e-12 {
		t.Errorf("average = %v, want 2.2", got)
	}
	if w.Value() != 3 {
		t.Errorf("value = %v", w.Value())
	}
}

func TestTimeWeightedResetAt(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 100) // garbage warm-up value
	w.Set(5, 2)
	w.ResetAt(10) // discard everything before t=10; value stays 2
	w.Set(15, 4)
	if got := w.Average(20); math.Abs(got-(5*2+5*4)/10.0) > 1e-12 {
		t.Errorf("average = %v, want 3", got)
	}
}

func TestQuickTallyMeanWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		var ta Tally
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			ta.Add(math.Mod(x, 1000))
		}
		if ta.N() == 0 {
			return true
		}
		m := ta.Mean()
		return m >= ta.Min()-1e-9 && m <= ta.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTallyLargeMeanVariance is the regression test for the catastrophic
// cancellation in the old (ΣX² − (ΣX)²/n)/(n−1) variance: observations
// with mean ≈ 1e9 and variance ≈ 1 have ΣX² ≈ 1e21, far beyond float64's
// 15–16 significant digits, so the subtraction used to return garbage
// (typically 0, or a negative value the StdErr clamp then hid). The
// Welford accumulation recovers the variance to full precision.
func TestTallyLargeMeanVariance(t *testing.T) {
	const shift = 1e9
	var ta Tally
	// ±1 around the shift: population variance exactly 1, sample
	// variance n/(n−1).
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			ta.Add(shift + 1)
		} else {
			ta.Add(shift - 1)
		}
	}
	want := float64(10000) / 9999
	if got := ta.Variance(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("variance = %v, want %v (catastrophic cancellation)", got, want)
	}
	if got := ta.Mean(); math.Abs(got-shift) > 1e-6 {
		t.Fatalf("mean = %v, want %v", got, shift)
	}
	wantSE := math.Sqrt(want / 10000)
	if got := ta.StdErr(); math.Abs(got-wantSE)/wantSE > 1e-9 {
		t.Fatalf("stderr = %v, want %v", got, wantSE)
	}
	// The second moment is dominated by mean² at this scale; it must
	// stay consistent with mean and variance to float64 precision.
	wantM2 := want*9999/10000 + shift*shift
	if got := ta.SecondMoment(); math.Abs(got-wantM2)/wantM2 > 1e-12 {
		t.Fatalf("second moment = %v, want %v", got, wantM2)
	}
}

// FuzzEventOrder drives the kernel with random Schedule, After, At,
// Cancel, Step and RunUntil sequences, callbacks scheduling more events,
// and checks each firing against a reference list of every event
// scheduled: events fire in (time, seq) order among the uncancelled
// ones, each at most once and never after its cancellation, the clock
// never goes backward, and Pending and Fired count what the reference
// holds. Each operation takes two bytes: the operation, then its
// argument.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 2, 3, 3, 0, 4, 0, 5, 9})
	f.Add([]byte{1, 0x85, 0, 0x92, 2, 0, 3, 1, 5, 15, 4, 0, 4, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 1, 3, 2, 3, 0, 4, 0, 1, 0xf0, 5, 3, 3, 2})
	f.Add([]byte{6, 1, 6, 2, 4, 0, 6, 3, 3, 5, 5, 2, 6, 4, 5, 7})
	type ref struct {
		time             float64
		seq              uint64
		ev               *Event // nil for handle-free events
		child            int    // delay of the event the callback schedules, or -1
		cancelled, fired bool
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		var evs []*ref
		var seq, fired uint64
		last := 0.0
		live := func() int {
			n := 0
			for _, e := range evs {
				if !e.fired && !e.cancelled {
					n++
				}
			}
			return n
		}
		var schedule func(op int, delay float64, child int)
		check := func(e *ref) {
			switch {
			case e.fired:
				t.Fatalf("event %d fired twice", e.seq)
			case e.cancelled:
				t.Fatalf("cancelled event %d fired", e.seq)
			case s.Now() != e.time || s.Now() < last:
				t.Fatalf("event %d due at %v fired at %v (clock was %v)", e.seq, e.time, s.Now(), last)
			}
			for _, o := range evs {
				if !o.fired && !o.cancelled && (o.time < e.time || o.time == e.time && o.seq < e.seq) {
					t.Fatalf("event %d (%v) fired before event %d (%v)", e.seq, e.time, o.seq, o.time)
				}
			}
			e.fired, last = true, s.Now()
			fired++
			if e.child >= 0 {
				schedule(int(e.seq%3), float64(e.child), -1)
			}
		}
		schedule = func(op int, delay float64, child int) {
			e := &ref{time: s.Now() + delay, seq: seq, child: child}
			seq++
			evs = append(evs, e)
			fn := func() { check(e) }
			switch op {
			case 0:
				e.ev = s.Schedule(delay, fn)
			case 1:
				s.After(delay, fn)
			default:
				s.At(e.time, fn)
			}
		}
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := int(ops[k]%7), ops[k+1]
			switch op {
			case 0, 1, 2:
				child := -1
				if arg&0x80 != 0 {
					child = int(arg>>4) & 7
				}
				schedule(op, float64(arg&15)/2, child)
			case 3:
				// Cancel a handle (live, fired or cancelled alike) or nil.
				var target *ref
				for j := range evs {
					if e := evs[(int(arg)+j)%len(evs)]; e.ev != nil {
						target = e
						break
					}
				}
				if target == nil {
					s.Cancel(nil)
					break
				}
				if !target.fired {
					target.cancelled = true
				}
				s.Cancel(target.ev)
			case 4:
				want := live() > 0
				if got := s.Step(); got != want {
					t.Fatalf("Step = %v with %d live events", got, live())
				}
			case 6:
				// A burst of events to grow the queue past a few levels.
				x := uint32(arg) + 1
				for j := 0; j < 24; j++ {
					x = x*1664525 + 1013904223
					schedule(j%3, float64(x>>27)/4, -1)
				}
			case 5:
				horizon := s.Now() + float64(arg&15)/2
				s.RunUntil(horizon)
				if s.Now() != horizon {
					t.Fatalf("clock %v after RunUntil(%v)", s.Now(), horizon)
				}
				last = horizon
				for _, e := range evs {
					if !e.fired && !e.cancelled && e.time <= horizon {
						t.Fatalf("event %d due at %v still pending after RunUntil(%v)", e.seq, e.time, horizon)
					}
				}
			}
			if s.Pending() != live() || s.Fired() != fired {
				t.Fatalf("Pending %d, Fired %d; reference %d live, %d fired", s.Pending(), s.Fired(), live(), fired)
			}
		}
		s.Run(math.MaxUint64)
		if s.Pending() != 0 || live() != 0 || s.Fired() != fired {
			t.Fatalf("after draining: Pending %d, %d live, Fired %d vs %d", s.Pending(), live(), s.Fired(), fired)
		}
	})
}
