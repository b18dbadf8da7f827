// Package netsim is a deterministic discrete-event network simulator: an
// event scheduler plus links with finite rate, propagation delay, queuing
// disciplines and loss models. It stands in for the testbed networks the
// paper measured on (the EuQoS QoS backbone and wireless paths) while
// keeping every run exactly reproducible from a seed.
//
// Protocol endpoints are written sans-IO (see internal/qtp, internal/tcp)
// and attach to the simulator through the Handler interface; the same
// state machines also run over real UDP via internal/qtpnet.
package netsim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// Sim is the event scheduler. Create one with New, wire up a topology,
// then call Run or RunUntilIdle.
type Sim struct {
	now    Time
	events eventHeap
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
	stopped bool
	fired   bool
}

// Stop cancels the timer. It reports whether the timer was still
// pending (i.e. Stop prevented the callback from running).
func (t *Timer) Stop() bool {
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) runs the callback at the current time, preserving event
// order. It returns a Timer that can cancel the callback.
func (s *Sim) At(at Time, fn func()) *Timer {
	if at < s.now {
		at = s.now
	}
	t := &Timer{}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn, timer: t})
	return t
}

// After schedules fn to run d from now.
func (s *Sim) After(d Time, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// Run executes events in order until the event queue is empty or the
// next event is after `until`; it then advances the clock to `until`.
func (s *Sim) Run(until Time) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle executes events until none remain.
func (s *Sim) RunUntilIdle() {
	for len(s.events) > 0 {
		s.step()
	}
}

func (s *Sim) step() {
	ev := heap.Pop(&s.events).(*event)
	s.now = ev.at
	if ev.timer.stopped {
		return
	}
	ev.timer.fired = true
	ev.fn()
}

// event is one scheduled callback. Events with equal times run in
// scheduling order (seq), making the execution order total and
// deterministic.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	timer *Timer
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
