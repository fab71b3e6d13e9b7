package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, "c", func() { got = append(got, 3) })
	s.After(10*time.Millisecond, "a", func() { got = append(got, 1) })
	s.After(20*time.Millisecond, "b", func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, "tie", func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	ev := s.After(time.Millisecond, "x", func() { fired = true })
	ev.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestSchedulerPastSchedulingClamped(t *testing.T) {
	s := NewScheduler(1)
	var at time.Duration = -1
	s.After(10*time.Millisecond, "setup", func() {
		// Attempt to schedule in the past; must fire at Now, not before.
		s.At(time.Millisecond, "past", func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if at != 10*time.Millisecond {
		t.Errorf("past event fired at %v, want clamp to 10ms", at)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Millisecond
		s.After(d, "tick", func() {
			n++
			if n == 2 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run() = %v, want ErrStopped", err)
	}
	if n != 2 {
		t.Errorf("executed %d events after stop, want 2", n)
	}
}

func TestSchedulerRunUntilHorizon(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	for i := 1; i <= 4; i++ {
		d := time.Duration(i*10) * time.Millisecond
		s.After(d, "tick", func() { fired = append(fired, s.Now()) })
	}
	if err := s.RunUntil(25 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if s.Now() != 25*time.Millisecond {
		t.Errorf("clock = %v after horizon, want 25ms", s.Now())
	}
	// Continue past the horizon.
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(fired) != 4 {
		t.Errorf("fired %d events total, want 4", len(fired))
	}
}

// TestRunUntilNeverRewindsClock: a horizon at or behind Now leaves the
// clock where it is, with or without an event beyond it, so a later
// After(d) still fires d from now.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	s.After(15*time.Millisecond, "a", func() { fired = append(fired, s.Now()) })
	s.After(20*time.Millisecond, "b", func() { fired = append(fired, s.Now()) })
	if err := s.RunUntil(15 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, h := range []time.Duration{15 * time.Millisecond, 5 * time.Millisecond, 0} {
		if err := s.RunUntil(h); err != nil {
			t.Fatal(err)
		}
		if s.Now() != 15*time.Millisecond {
			t.Fatalf("RunUntil(%v) at 15ms with an event at 20ms moved the clock to %v", h, s.Now())
		}
	}
	s.After(time.Millisecond, "c", func() { fired = append(fired, s.Now()) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{15 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	// An idle queue behaves the same, and the largest horizon neither
	// overflows nor skips an event.
	if err := s.RunUntil(time.Millisecond); err != nil || s.Now() != 20*time.Millisecond {
		t.Fatalf("idle RunUntil(1ms) at 20ms: clock %v, err %v", s.Now(), err)
	}
	s.After(time.Millisecond, "d", func() { fired = append(fired, s.Now()) })
	if err := s.RunUntil(math.MaxInt64); err != nil || len(fired) != 4 || s.Now() != math.MaxInt64 {
		t.Fatalf("RunUntil(max): %d fired, clock %v, err %v", len(fired), s.Now(), err)
	}
}

func TestSchedulerEventLimit(t *testing.T) {
	s := NewScheduler(1)
	s.Limit = 10
	var tick func()
	tick = func() { s.After(time.Millisecond, "tick", tick) }
	s.After(time.Millisecond, "tick", tick)
	if err := s.Run(); err == nil {
		t.Fatal("infinite event chain did not trip the limit")
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := NewScheduler(seed)
		var out []time.Duration
		var step func()
		remaining := 100
		step = func() {
			out = append(out, s.Now())
			remaining--
			if remaining > 0 {
				jitter := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
				s.After(jitter, "step", step)
			}
		}
		s.After(0, "step", step)
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimerRearmAndDisarm(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(s, "rto")
	count := 0
	tm.Arm(10*time.Millisecond, func() { count++ })
	tm.Arm(20*time.Millisecond, func() { count += 10 }) // replaces the first
	if !tm.Armed() {
		t.Error("timer not armed after Arm")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10 (only the re-armed firing)", count)
	}

	tm.Arm(5*time.Millisecond, func() { count++ })
	tm.Disarm()
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 10 {
		t.Errorf("disarmed timer fired; count = %d", count)
	}
}

// Property: for any set of (delay, id) pairs, events fire in
// nondecreasing-time order and ties fire in scheduling order.
func TestSchedulerOrderingProperty(t *testing.T) {
	prop := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := NewScheduler(7)
		type firing struct {
			at  time.Duration
			seq int
		}
		var fired []firing
		for i, d := range delaysRaw {
			i := i
			dd := time.Duration(d%64) * time.Millisecond // force ties
			s.After(dd, "p", func() {
				fired = append(fired, firing{s.Now(), i})
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil(h) never executes an event with timestamp > h and
// always leaves the clock at exactly h when events remain beyond it.
func TestRunUntilHorizonProperty(t *testing.T) {
	prop := func(delaysRaw []uint16, horizonRaw uint16) bool {
		s := NewScheduler(3)
		h := time.Duration(horizonRaw%100) * time.Millisecond
		late := 0
		for _, d := range delaysRaw {
			dd := time.Duration(d%200) * time.Millisecond
			s.After(dd, "p", func() {
				if s.Now() > h {
					late++
				}
			})
		}
		if err := s.RunUntil(h); err != nil {
			return false
		}
		return late == 0 && s.Now() <= h
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// callLog is the receiver the AtCall tests schedule against.
type callLog struct{ got []int }

func logCall(recv, arg any, n int) {
	l := recv.(*callLog)
	l.got = append(l.got, *arg.(*int)+n)
}

// TestAtCallInterleavesWithAt: the closure-free form shares the queue
// and the tie-break with At — same-instant events fire in scheduling
// order whichever form scheduled them — and hands back exactly the
// receiver, argument and integer it was given.
func TestAtCallInterleavesWithAt(t *testing.T) {
	s := NewScheduler(1)
	l := &callLog{}
	hundred := 100
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			s.AtCall(time.Millisecond, "call", logCall, l, &hundred, i)
		} else {
			i := i
			s.At(time.Millisecond, "fn", func() { l.got = append(l.got, i) })
		}
	}
	s.AfterCall(-time.Second, "clamped", logCall, l, &hundred, 50) // fires first, at Now
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{150, 100, 1, 102, 3, 104, 5}
	if len(l.got) != len(want) {
		t.Fatalf("fired %v, want %v", l.got, want)
	}
	for i := range want {
		if l.got[i] != want[i] {
			t.Fatalf("fired %v, want %v", l.got, want)
		}
	}
}

// TestAtCallCancelAndReset: a cancelled or reset-away AtCall event never
// fires and pins none of its arguments.
func TestAtCallCancelAndReset(t *testing.T) {
	s := NewScheduler(1)
	l := &callLog{}
	v := 1
	ev := s.AfterCall(time.Millisecond, "cancelled", logCall, l, &v, 0)
	ev.Cancel()
	if ev.h != nil || ev.recv != nil || ev.arg != nil {
		t.Error("Cancel left the handler or its arguments on the event")
	}
	pending := s.AfterCall(time.Millisecond, "reset away", logCall, l, &v, 0)
	s.Reset(1)
	if pending.h != nil || pending.recv != nil || pending.arg != nil {
		t.Error("Reset left the handler or its arguments on the event")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(l.got) != 0 {
		t.Errorf("cancelled events fired: %v", l.got)
	}
}

// TestAtCallDoesNotAllocate: with the free list warm, scheduling and
// firing through the closure-free form allocates nothing, where a
// closure capturing the same receiver, argument and integer costs one
// object per event. At with a closure built beforehand allocates nothing
// either: the func rides in the event's receiver word.
func TestAtCallDoesNotAllocate(t *testing.T) {
	s := NewScheduler(1)
	l := &callLog{got: make([]int, 0, 1024)}
	v := 1
	step := func() {
		l.got = l.got[:0]
		for i := 0; i < 8; i++ {
			s.AfterCall(time.Duration(i), "hop", logCall, l, &v, i)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("AfterCall + fire allocates %.1f objects per 8 events, want 0", allocs)
	}
	fired := 0
	fn := func() { fired++ }
	at := func() {
		for i := 0; i < 8; i++ {
			s.At(s.Now()+time.Duration(i), "fn", fn)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	at()
	if allocs := testing.AllocsPerRun(100, at); allocs != 0 || fired != 8*102 {
		t.Errorf("At + fire allocates %.1f objects per 8 events (%d fired), want 0", allocs, fired)
	}
}

// TestRandSeededOnFirstDraw: the random source is seeded by the first
// Rand call after NewScheduler or Reset, not by them — so a run that
// never draws pays nothing — and the stream a drawing caller sees is
// math/rand's for that seed, from its start, after either.
func TestRandSeededOnFirstDraw(t *testing.T) {
	draws := func(r *rand.Rand) (out [4]int64) {
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	s := NewScheduler(7)
	if got, want := draws(s.Rand()), draws(rand.New(rand.NewSource(7))); got != want {
		t.Fatalf("after NewScheduler(7): %v, want math/rand's stream %v", got, want)
	}
	s.Reset(9)
	s.Reset(11) // an undrawn seed leaves no trace
	if got, want := draws(s.Rand()), draws(rand.New(rand.NewSource(11))); got != want {
		t.Fatalf("after Reset(11): %v, want math/rand's stream %v", got, want)
	}
	// Asking again does not restart the stream.
	if got, fresh := draws(s.Rand()), draws(rand.New(rand.NewSource(11))); got == fresh {
		t.Fatal("second Rand call reseeded the source")
	}
	if n := testing.AllocsPerRun(100, func() { s.Reset(3) }); n != 0 {
		t.Errorf("Reset allocates %v times", n)
	}
	var fresh *Scheduler
	if n := testing.AllocsPerRun(10, func() { fresh = NewScheduler(5) }); n > 1 || fresh == nil {
		t.Errorf("NewScheduler allocates %v times; the random source should wait for a draw", n)
	}
}
