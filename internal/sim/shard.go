package sim

import "time"

// Conservative parallel execution support: RunWindow executes one
// shard's events up to a window boundary, and ShardSet runs a group of
// schedulers over a sequence of such windows on persistent worker
// goroutines with a barrier between windows.
//
// The scheme is classic conservative parallel DES: the caller computes
// a window end E such that no event outside a shard can affect that
// shard before E (in this repository, E derives from trunk propagation
// plus minimum-frame serialization — see the facade's sharded run
// loop), every shard executes all its events strictly below E, and
// cross-shard traffic is exchanged at the barrier. Nothing here knows
// about frames or mailboxes; this file is only the execution substrate.

// RunWindow executes events with timestamps strictly below end, then
// advances the clock to clockTo if that is ahead (callers pass the
// window boundary, capped at the run deadline, so every shard's clock
// agrees at each barrier). It runs the same loop as RunUntil.
func (s *Scheduler) RunWindow(end, clockTo time.Duration) error {
	return s.run(end-1, clockTo)
}

// windowCmd asks a worker to run one window.
type windowCmd struct {
	end     time.Duration
	clockTo time.Duration
}

// ShardSet drives a group of schedulers through synchronized windows.
// Scheduler 0 runs inline on the calling goroutine (so a one-shard set
// costs no goroutines or channel operations at all); the rest run on
// persistent workers spawned by Start. Between RunWindow calls every
// worker is parked at the barrier, so the coordinator may freely touch
// any shard's state — that quiescence is the happens-before edge the
// mailbox drain relies on.
type ShardSet struct {
	scheds  []*Scheduler
	cmds    []chan windowCmd
	acks    chan error
	started bool

	before           []uint64 // each shard's executed count as a window starts
	windows, busiest uint64   // see Windows
}

// NewShardSet returns a set over the given schedulers (at least one).
func NewShardSet(scheds []*Scheduler) *ShardSet {
	return &ShardSet{scheds: scheds, before: make([]uint64, len(scheds))}
}

// Start spawns one worker per scheduler beyond the first. Idempotent
// until Stop.
func (ss *ShardSet) Start() {
	if ss.started || len(ss.scheds) <= 1 {
		ss.started = true
		return
	}
	ss.started = true
	ss.cmds = make([]chan windowCmd, len(ss.scheds)-1)
	ss.acks = make(chan error, len(ss.scheds)-1)
	for i := 1; i < len(ss.scheds); i++ {
		ch := make(chan windowCmd)
		ss.cmds[i-1] = ch
		s := ss.scheds[i]
		go func() {
			for cmd := range ch {
				ss.acks <- s.RunWindow(cmd.end, cmd.clockTo)
			}
		}()
	}
}

// Stop parks and releases the workers. The set may be Started again.
func (ss *ShardSet) Stop() {
	if !ss.started {
		return
	}
	ss.started = false
	for _, ch := range ss.cmds {
		close(ch)
	}
	ss.cmds = nil
	ss.acks = nil
}

// RunWindow executes one window on every shard in parallel and blocks
// until all of them reach the barrier. The first error (by shard order
// of arrival) is returned; all shards complete their window regardless.
func (ss *ShardSet) RunWindow(end, clockTo time.Duration) error {
	if !ss.started {
		ss.Start()
	}
	for i, s := range ss.scheds {
		ss.before[i] = s.executed
	}
	cmd := windowCmd{end: end, clockTo: clockTo}
	for _, ch := range ss.cmds {
		ch <- cmd
	}
	err := ss.scheds[0].RunWindow(end, clockTo)
	for range ss.cmds {
		if e := <-ss.acks; e != nil && err == nil {
			err = e
		}
	}
	var most uint64
	for i, s := range ss.scheds {
		most = max(most, s.executed-ss.before[i])
	}
	ss.windows++
	ss.busiest += most
	return err
}

// Windows reports the windows run and, summed over them, the events of
// each window's busiest shard. Executed over that sum is the partition's
// parallelism bound: a window lasts as long as its busiest shard, so no
// number of cores runs it faster, and counts make it the same anywhere.
func (ss *ShardSet) Windows() (windows, busiest uint64) { return ss.windows, ss.busiest }

// ResetWindows zeroes the window counts, as Scheduler.Reset does Executed.
func (ss *ShardSet) ResetWindows() { ss.windows, ss.busiest = 0, 0 }

// PeekMin returns the earliest pending event time across all shards,
// or false when every queue is empty.
func (ss *ShardSet) PeekMin() (time.Duration, bool) {
	var min time.Duration
	any := false
	for _, s := range ss.scheds {
		if t, ok := s.PeekTime(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// Executed sums fired events across all shards.
func (ss *ShardSet) Executed() uint64 {
	var n uint64
	for _, s := range ss.scheds {
		n += s.Executed()
	}
	return n
}
