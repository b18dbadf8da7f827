// Package netsim is a deterministic discrete-event network simulator: an
// event scheduler plus links with finite rate, propagation delay, queuing
// disciplines and loss models. It stands in for the testbed networks the
// paper measured on (the EuQoS QoS backbone and wireless paths) while
// keeping every run exactly reproducible from a seed.
//
// Protocol endpoints are written sans-IO (see internal/qtp, internal/tcp)
// and attach to the simulator through the Handler interface; the same
// state machines also run over real UDP via internal/qtpnet.
//
// # Event queue
//
// The scheduler's queue is a binary heap of pending timers and nothing
// else: a Timer is its own heap entry. At takes its Timer from a block
// the Sim allocates timerSlab at a time, so a scheduled callback costs
// one allocation per timerSlab calls. Timers fire in (at, seq) order,
// seq being the order in which they were scheduled; that order is total,
// so equal times run in scheduling order and a seed reproduces the same
// run. Stop removes a pending timer from the heap at once, in O(log n);
// a timer that fired or was stopped is no longer in the heap, and Stop
// on it returns false, also from inside its own callback. A timer is
// never reused, so that stays true however many timers follow it.
//
// Because stopped timers leave no trace in the queue, RunUntilIdle ends
// with Now at the time of the last callback that fired, not at that of a
// stopped timer that was due after it. Run(until) still ends at until.
//
// # Links
//
// A Link's transmitter holds one packet at a time and its propagation
// delay is fixed, so packets arrive in the order they left the
// transmitter. A link therefore holds at most two places in the queue,
// whatever the bandwidth-delay product: its own two timers, embedded in
// the Link with their callbacks bound once at construction, one for the
// packet on the transmitter and one for the oldest packet in flight. A
// packet through a link allocates nothing.
//
// The order of events is the one a timer per packet would give. Each
// packet's arrival gets its (at, seq) when its transmission ends, where
// an After call would have drawn it, and keeps it in the link's flight
// FIFO. Only the oldest arrival is queued; delivering it queues the next
// at that packet's recorded (at, seq). The delay is fixed, so that place
// is never before the one just delivered, and the queue orders by
// (at, seq) alone, so a timer that enters it later, but before it is
// due, fires exactly where it would have fired had it entered at once.
package netsim

import (
	"math/rand"
	"time"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// Sim is the event scheduler. Create one with New, wire up a topology,
// then call Run or RunUntilIdle.
type Sim struct {
	now    Time
	timers []*Timer // min-heap by (at, seq); each timer knows its index
	slab   []Timer  // At's current block of timers; slab[used:] is unused
	used   int
	seq    uint64
	rng    *rand.Rand
}

// New returns a simulator whose random stream is seeded with seed.
// The same seed and topology reproduce the identical packet trace.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's random stream. All randomness in a
// scenario (loss draws, workload jitter, RED) must come from here so
// runs are reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Timer is a cancellable scheduled callback.
type Timer struct {
	at    Time
	seq   uint64
	fn    func()
	index int // position in sim.timers; -1 once fired or stopped
	sim   *Sim
}

// Stop cancels the timer. It reports whether the timer was still
// pending (i.e. Stop prevented the callback from running).
func (t *Timer) Stop() bool {
	if t.index < 0 {
		return false
	}
	t.sim.remove(t.index)
	return true
}

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) runs the callback at the current time, preserving event
// order. It returns a Timer that can cancel the callback.
func (s *Sim) At(at Time, fn func()) *Timer {
	if at < s.now {
		at = s.now
	}
	if s.used == len(s.slab) {
		s.slab, s.used = make([]Timer, timerSlab), 0
	}
	t := &s.slab[s.used]
	s.used++
	t.fn, t.sim = fn, s
	s.seq++
	s.queue(t, at, s.seq)
	return t
}

// timerSlab is how many timers At allocates at once. A block stays
// alive while a caller holds any timer in it: at most this many timers'
// worth of memory per timer held.
const timerSlab = 64

// queue puts t, which must not be pending, in the queue to fire at
// (at, seq). at must not be before Now, and seq must have been drawn
// from s.seq.
func (s *Sim) queue(t *Timer, at Time, seq uint64) {
	t.at, t.seq = at, seq
	s.timers = append(s.timers, t)
	s.up(len(s.timers) - 1)
}

// After schedules fn to run d from now.
func (s *Sim) After(d Time, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// Run executes events in order until the event queue is empty or the
// next event is after `until`; it then advances the clock to `until`.
func (s *Sim) Run(until Time) {
	for len(s.timers) > 0 && s.timers[0].at <= until {
		s.step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle executes events until none remain. Now is then the time
// of the last callback that ran.
func (s *Sim) RunUntilIdle() {
	for len(s.timers) > 0 {
		s.step()
	}
}

func (s *Sim) step() {
	t := s.timers[0]
	s.remove(0)
	s.now = t.at
	t.fn()
}

// before reports whether t fires before u.
func (t *Timer) before(u *Timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// remove takes the timer at heap index i out of the queue.
func (s *Sim) remove(i int) {
	h := s.timers
	last := len(h) - 1
	h[i].index = -1
	if i < last {
		h[i] = h[last]
	}
	h[last] = nil
	s.timers = h[:last]
	if i < last && !s.down(i) {
		s.up(i)
	}
}

// up moves the timer at i towards the root past every parent that
// fires after it, keeping each moved timer's index.
func (s *Sim) up(i int) {
	h := s.timers
	t := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = t
	t.index = i
}

// down moves the timer at i towards the leaves past every child that
// fires before it, keeping each moved timer's index, and reports whether
// it moved.
func (s *Sim) down(i int) bool {
	h := s.timers
	t, start := h[i], i
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(t) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = t
	t.index = i
	return i > start
}
