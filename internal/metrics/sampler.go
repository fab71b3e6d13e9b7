package metrics

import "time"

// DefaultRingCapacity bounds the sampled points kept when the caller does
// not choose a capacity. At the facade's default 50 ms interval this
// covers well over three virtual minutes.
const DefaultRingCapacity = 4096

// Point is one sampled instant of the whole registry.
type Point struct {
	// At is the virtual time of the sample, in nanoseconds since
	// simulation start.
	At time.Duration `json:"at_ns"`
	// Samples are the gathered readings, sorted by (node, layer, name).
	Samples []Sample `json:"samples"`
}

// Sampler periodically gathers a Registry into a bounded ring of
// time-series points. It is driven entirely by virtual time: the caller
// supplies the clock and a scheduling primitive (normally closures over
// the sim.Scheduler), so the sampler itself stays free of simulation
// dependencies and is trivially testable.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	now      func() time.Duration
	schedule func(d time.Duration, fn func())

	ring    []Point
	next    int // write cursor
	n       int // points stored (<= cap(ring))
	running bool
	tick    func() // records and re-arms; bound once, so arming allocates nothing
}

// NewSampler builds a sampler that records reg every interval. capacity
// bounds the ring (<=0 selects DefaultRingCapacity); when full, the
// oldest point is overwritten. now reads the virtual clock; schedule
// arranges a callback after a virtual delay.
func NewSampler(reg *Registry, interval time.Duration, capacity int,
	now func() time.Duration, schedule func(d time.Duration, fn func())) *Sampler {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	s := &Sampler{
		reg:      reg,
		interval: interval,
		now:      now,
		schedule: schedule,
		ring:     make([]Point, capacity),
	}
	s.tick = func() {
		if s.running {
			s.Record()
			s.arm()
		}
	}
	return s
}

// Interval reports the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Start arms the periodic sampling; the first point lands one interval
// from now. Starting a running sampler is a no-op.
func (s *Sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.arm()
}

// Stop halts sampling after the currently armed tick is skipped.
func (s *Sampler) Stop() { s.running = false }

// Reset discards all stored points and stops the sampler; call Start to
// resume recording (after a scheduler reset has cancelled the
// previously armed tick).
func (s *Sampler) Reset() {
	for i := range s.ring {
		s.ring[i] = Point{}
	}
	s.next = 0
	s.n = 0
	s.running = false
}

func (s *Sampler) arm() { s.schedule(s.interval, s.tick) }

// Record takes one sample immediately (also used for a final sample at
// run end, outside the periodic cadence).
func (s *Sampler) Record() {
	s.ring[s.next] = Point{At: s.now(), Samples: s.reg.Gather()}
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// Len reports how many points are stored.
func (s *Sampler) Len() int { return s.n }

// Points returns the stored points oldest-first (a copy; the ring keeps
// recording).
func (s *Sampler) Points() []Point {
	out := make([]Point, 0, s.n)
	start := s.next - s.n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}
