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

// Sampler is a bounded ring of time-series points, one due every
// interval. It schedules nothing: its owner asks Due when the next point
// is owed and hands Record the readings at that instant, so the sampler
// stays free of simulation dependencies and adds no event to the run it
// observes.
type Sampler struct {
	interval time.Duration
	due      time.Duration

	ring []Point
	next int // write cursor
	n    int // points stored (<= cap(ring))
}

// NewSampler builds a sampler whose first point is due one interval
// (which must be positive) after start, keeping the last capacity
// points.
func NewSampler(interval time.Duration, capacity int, start time.Duration) *Sampler {
	return &Sampler{interval: interval, due: start + interval, ring: make([]Point, capacity)}
}

// Interval reports the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Due reports the virtual time the next point is owed at.
func (s *Sampler) Due() time.Duration { return s.due }

// Reset discards all stored points; the next is due one interval after
// start.
func (s *Sampler) Reset(start time.Duration) {
	clear(s.ring)
	s.next = 0
	s.n = 0
	s.due = start + s.interval
}

// Record stores samples as the point due now and makes the next one due
// an interval later.
func (s *Sampler) Record(samples []Sample) {
	s.ring[s.next] = Point{At: s.due, Samples: samples}
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.due += s.interval
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
