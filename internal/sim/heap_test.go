package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// --- reference scheduler: a deliberately naive sorted-slice implementation
// with the same (at, seq) ordering contract, used as the oracle for the
// index-heap scheduler's firing order.

type refEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

type refScheduler struct {
	now    time.Duration
	seq    uint64
	events []*refEvent
}

func (r *refScheduler) after(d time.Duration, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	r.seq++
	ev := &refEvent{at: r.now + d, seq: r.seq, fn: fn}
	r.events = append(r.events, ev)
	return ev
}

// step fires the earliest live event, reporting false when none is left.
func (r *refScheduler) step() bool {
	min := -1
	for i, ev := range r.events {
		if ev.cancelled {
			continue
		}
		if min < 0 || ev.at < r.events[min].at ||
			(ev.at == r.events[min].at && ev.seq < r.events[min].seq) {
			min = i
		}
	}
	if min < 0 {
		return false
	}
	ev := r.events[min]
	r.events = append(r.events[:min], r.events[min+1:]...)
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refScheduler) run() {
	for r.step() {
	}
}

func (r *refScheduler) pending() int {
	n := 0
	for _, ev := range r.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// schedDriver abstracts the two schedulers behind the operations the
// workload scripts need: schedule-after, cancel-by-handle, firing one
// event or all of them, Reset, and the clock and pending count.
type schedDriver struct {
	after   func(d time.Duration, fn func()) (cancel func())
	run     func()
	step    func() bool
	reset   func()
	now     func() time.Duration
	pending func() int
}

func realDriver() *schedDriver {
	s := NewScheduler(1)
	return &schedDriver{
		after: func(d time.Duration, fn func()) func() {
			ev := s.After(d, "w", fn)
			return ev.Cancel
		},
		run:     func() { _ = s.Run() },
		step:    s.Step,
		reset:   func() { s.Reset(1) },
		now:     s.Now,
		pending: s.Pending,
	}
}

func refDriver() *schedDriver {
	r := &refScheduler{}
	return &schedDriver{
		after: func(d time.Duration, fn func()) func() {
			ev := r.after(d, fn)
			return func() { ev.cancelled = true; ev.fn = nil }
		},
		run:     r.run,
		step:    r.step,
		reset:   func() { *r = refScheduler{} },
		now:     func() time.Duration { return r.now },
		pending: r.pending,
	}
}

// workloadStep drives one event firing of the randomized workload: it may
// spawn follow-up events, cancel a pending one, or re-arm (cancel+spawn).
type workloadStep struct {
	SpawnDelayMs uint8
	Spawn        bool
	CancelPick   uint8
	Cancel       bool
	Rearm        bool
}

// runWorkload executes the scripted workload against a driver and returns
// the observed firing trace as (id, at) pairs.
func runWorkload(d *schedDriver, seeds []uint8, steps []workloadStep) []int64 {
	var trace []int64
	type handle struct {
		id     int
		cancel func()
	}
	var live []handle
	fired := map[int]bool{}
	nextID := 0
	stepIdx := 0

	var schedule func(delay time.Duration)
	schedule = func(delay time.Duration) {
		id := nextID
		nextID++
		var h handle
		h.id = id
		h.cancel = d.after(delay, func() {
			fired[id] = true
			trace = append(trace, int64(id), int64(d.now()))
			if stepIdx >= len(steps) {
				return
			}
			st := steps[stepIdx]
			stepIdx++
			if st.Spawn {
				schedule(time.Duration(st.SpawnDelayMs%32) * time.Millisecond)
			}
			// Prune fired handles, then maybe cancel or re-arm one.
			alive := live[:0]
			for _, lh := range live {
				if !fired[lh.id] {
					alive = append(alive, lh)
				}
			}
			live = alive
			if len(live) > 0 && (st.Cancel || st.Rearm) {
				pick := int(st.CancelPick) % len(live)
				victim := live[pick]
				victim.cancel()
				fired[victim.id] = true // treat as dead either way
				if st.Rearm {
					schedule(time.Duration(st.SpawnDelayMs%16) * time.Millisecond)
				}
			}
		})
		live = append(live, h)
	}

	for _, sd := range seeds {
		schedule(time.Duration(sd%64) * time.Millisecond)
	}
	d.run()
	return trace
}

// Property: the index-heap scheduler fires the exact same events at the
// exact same virtual instants as the naive sorted-slice reference, across
// randomized workloads that mix scheduling, cancellation and re-arming
// from inside callbacks.
func TestSchedulerMatchesReference(t *testing.T) {
	prop := func(seeds []uint8, rawSteps []workloadStep) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 40 {
			seeds = seeds[:40]
		}
		if len(rawSteps) > 200 {
			rawSteps = rawSteps[:200]
		}
		got := runWorkload(realDriver(), seeds, rawSteps)
		want := runWorkload(refDriver(), seeds, rawSteps)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// fuzzDelays are the offsets FuzzSchedulerOrder schedules at: zero twice,
// so same-instant bursts are the common case.
var fuzzDelays = [...]time.Duration{0, 0, time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond}

// runOps decodes ops into scheduler operations against d and returns the
// trace: (id, at) per firing and (-1, Pending) after each operation.
// Every callback reads one byte: bit 0 schedules a follow-up, bit 4
// cancels a live event picked by the next byte.
func runOps(d *schedDriver, ops []byte) []int64 {
	type handle struct {
		id     int
		at     time.Duration
		cancel func()
	}
	var (
		live  []handle // in scheduling order
		trace []int64
		id    int
		pos   int
	)
	next := func() byte {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return ops[pos-1]
	}
	// cancel picks among the live events sharing the instant of the one
	// b's low bits name: the first, the middle one or the last; or, for a
	// top value of 3, the newest live event.
	cancel := func(b byte) {
		if len(live) == 0 {
			return
		}
		v := len(live) - 1
		if b>>6 != 3 {
			at := live[int(b&0x3f)%len(live)].at
			var same []int
			for i, h := range live {
				if h.at == at {
					same = append(same, i)
				}
			}
			v = same[[3]int{0, len(same) / 2, len(same) - 1}[b>>6]]
		}
		live[v].cancel()
		live = append(live[:v], live[v+1:]...)
	}
	var schedule func(delay time.Duration)
	schedule = func(delay time.Duration) {
		h := handle{id: id, at: d.now() + delay}
		id++
		h.cancel = d.after(delay, func() {
			for i := range live {
				if live[i].id == h.id {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			trace = append(trace, int64(h.id), int64(d.now()))
			b := next()
			if b&1 != 0 {
				schedule(fuzzDelays[(b>>1)%5])
			}
			if b&0x10 != 0 {
				cancel(next())
			}
		})
		live = append(live, h)
	}
	for pos < len(ops) {
		switch op := next() % 8; {
		case op < 4:
			schedule(fuzzDelays[next()%5])
		case op == 4:
			cancel(next())
		case op < 7:
			for n := next()%8 + 1; n > 0 && d.step(); n-- {
			}
		default:
			d.reset()
			live = nil
		}
		trace = append(trace, -1, int64(d.pending()))
	}
	d.run()
	return append(trace, -1, int64(d.pending()))
}

// FuzzSchedulerOrder: whatever mix of same-instant bursts, cancels of the
// first, middle and last of a burst, scheduling from callbacks and Resets the
// input encodes, the scheduler fires the same events at the same instants
// as the naive reference, and its Pending count agrees after every step.
func FuzzSchedulerOrder(f *testing.F) {
	// Each operation is an op byte (0-3 schedule, 4 cancel, 5-6 step,
	// 7 Reset) and, but for Reset, an argument byte; each firing reads one
	// more (see runOps). Five events at one instant, one at 5 µs splitting
	// the burst, three more at the first instant; cancel a head, a middle
	// and a tail; fire eight.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0,
		4, 0x00, 4, 0x40, 4, 0x80, 5, 7})
	// Callbacks that schedule at zero delay into the burst being popped
	// and cancel the newest event.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 1, 0x15, 0xc0, 0x03, 0, 2,
		5, 7, 0x15, 0xc0, 0x15, 0x40})
	// Reset mid-burst, then continue at the same instants.
	f.Add([]byte{0, 0, 0, 0, 0, 2, 7, 0, 0, 0, 0, 4, 0xc0, 0, 0, 5, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		got := runOps(realDriver(), ops)
		want := runOps(refDriver(), ops)
		if len(got) != len(want) {
			t.Fatalf("trace has %d entries, reference %d\ngot  %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trace diverges at entry %d\ngot  %v\nwant %v", i, got, want)
			}
		}
	})
}

// TestSameInstantBurstOrderAndCancel: a burst at one instant fires in
// scheduling order, an event for another instant pushed mid-burst does
// not disturb that order, and cancelling a burst's first, a middle and
// its last event is eager.
func TestSameInstantBurstOrderAndCancel(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	add := func(at time.Duration, id int) *Event {
		return s.At(at, "burst", func() { got = append(got, id) })
	}
	for i := 0; i < 1000; i++ {
		add(time.Millisecond, i)
	}
	if s.Pending() != 1000 {
		t.Fatalf("1000 same-instant events: Pending %d, want 1000", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("firing %d was event %d: burst not in seq order", i, id)
		}
	}

	// Split: 0..499 and 501..999 at 2 ms, 500 at 3 ms in between.
	got = got[:0]
	var evs []*Event
	for i := 0; i < 1000; i++ {
		at := 2 * time.Millisecond
		if i == 500 {
			at = 3 * time.Millisecond
		}
		evs = append(evs, add(at, i))
	}
	// Cancel the burst's first, a middle and its last (newest) event.
	before := s.Pending()
	for _, i := range []int{0, 250, 999} {
		evs[i].Cancel()
	}
	if d := before - s.Pending(); d != 3 {
		t.Fatalf("three cancels dropped Pending by %d, want 3", d)
	}
	add(2*time.Millisecond, 1000) // joins after 998
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 1; i <= 1000; i++ {
		if i != 250 && i != 500 && i != 999 {
			want = append(want, i)
		}
	}
	want = append(want, 500)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d was event %d, want %d", i, got[i], want[i])
		}
	}
}

// Regression: cancelling an event must release its callback closure
// immediately — a cancelled retransmission timer must not pin its frame
// buffer in memory until the event's timestamp rolls around.
func TestCancelReleasesCallback(t *testing.T) {
	s := NewScheduler(1)
	frame := make([]byte, 1500)
	ev := s.After(time.Hour, "rto", func() { _ = frame[0] })
	if ev.recv == nil {
		t.Fatal("scheduled event has no callback")
	}
	ev.Cancel()
	if ev.h != nil || ev.recv != nil {
		t.Error("Cancel retained the callback closure (frame reference lingers)")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// Cancel must reap the event from the queue eagerly, not leave a
// tombstone for pop to skip later.
func TestCancelEagerReap(t *testing.T) {
	s := NewScheduler(1)
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, s.After(time.Duration(i+1)*time.Millisecond, "x", func() {}))
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending() = %d, want 10", got)
	}
	evs[3].Cancel()
	evs[7].Cancel()
	if got := s.Pending(); got != 8 {
		t.Errorf("Pending() = %d after two cancels, want 8 (eager reap)", got)
	}
	if !evs[3].Cancelled() || !evs[7].Cancelled() {
		t.Error("cancelled handles do not report Cancelled()")
	}
	fired := 0
	for i, ev := range evs {
		if i != 3 && i != 7 {
			_ = ev
			fired++
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := s.Executed(); got != uint64(fired) {
		t.Errorf("executed %d events, want %d (cancelled ones must not fire)", got, fired)
	}
}

// Fired and cancelled events must be recycled through the free list, and
// reuse must bump the generation so stale handles are detectable.
func TestEventFreeListReuse(t *testing.T) {
	s := NewScheduler(1)
	ev1 := s.After(time.Millisecond, "a", func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	gen1 := ev1.gen
	ev2 := s.After(time.Millisecond, "b", func() {})
	if ev2 != ev1 {
		t.Error("fired event was not recycled for the next scheduling")
	}
	if ev2.gen != gen1+1 {
		t.Errorf("gen = %d after reuse, want %d", ev2.gen, gen1+1)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Steady-state churn must not grow the free list beyond the peak
	// number of concurrently pending events.
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(i)*time.Microsecond, "churn", func() {})
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if n := len(s.free); n > 2 {
		t.Errorf("free list grew to %d under serial churn, want <= 2", n)
	}
}

// Timer must report scheduler-confirmed armed state across the full
// arm → fire → re-arm cycle, including when its recycled event struct is
// reused by an unrelated scheduling in between.
func TestTimerArmFireRearm(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(s, "rto")
	fires := 0
	tm.Arm(time.Millisecond, func() { fires++ })
	if !tm.Armed() {
		t.Fatal("Armed() = false after Arm")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if tm.Armed() {
		t.Error("Armed() = true after firing")
	}

	// An unrelated scheduling now grabs the recycled struct; the stale
	// timer handle must not mistake it for its own.
	other := s.After(time.Millisecond, "other", func() {})
	if tm.Armed() {
		t.Error("Armed() = true while an unrelated event reuses the struct")
	}
	tm.Disarm() // must not cancel the unrelated event
	if other.Cancelled() {
		t.Error("stale timer Disarm cancelled an unrelated event")
	}

	// Re-arm and fire again.
	tm.Arm(2*time.Millisecond, func() { fires += 10 })
	if !tm.Armed() {
		t.Error("Armed() = false after re-arm")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fires != 11 {
		t.Errorf("fires = %d after re-arm cycle, want 11", fires)
	}
}

// --- container/heap baseline for the scheduler microbenchmark ---
//
// This is the event queue the scheduler used before the monomorphic
// index heap: a binary heap behind the container/heap interface, paying
// an interface conversion per operation plus indirect Less/Swap calls.
// It exists only as the benchmark baseline.

type boxedEvent struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int
}

type boxedQueue []*boxedEvent

func (q boxedQueue) Len() int { return len(q) }
func (q boxedQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q boxedQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *boxedQueue) Push(x any) {
	ev := x.(*boxedEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *boxedQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// BenchmarkSchedulerBaselineContainerHeap measures the pre-overhaul queue
// discipline: one push + one pop through container/heap per event, with a
// fresh allocation per event. It stays as the reference the 4-ary heap is
// judged against: compare its ns/op with bench/'s sim.ns_per_event_d16.
func BenchmarkSchedulerBaselineContainerHeap(b *testing.B) {
	var q boxedQueue
	heap.Init(&q)
	now := time.Duration(0)
	seq := uint64(0)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			seq++
			heap.Push(&q, &boxedEvent{at: now + time.Microsecond, seq: seq, fn: tick})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	seq++
	heap.Push(&q, &boxedEvent{at: now, seq: seq, fn: tick})
	for q.Len() > 0 {
		ev := heap.Pop(&q).(*boxedEvent)
		now = ev.at
		ev.fn()
	}
}
