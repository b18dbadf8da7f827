package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refSim is the scheduler netsim had before timers became their own heap
// entries: a container/heap of events in which Stop only sets a flag and
// a stopped event is discarded when it reaches the head. It is the
// reference TestSchedulerDifferential compares Sim against.
type refSim struct {
	now    Time
	events refHeap
	seq    uint64
}

type refTimer struct {
	stopped bool
	fired   bool
}

func (t *refTimer) Stop() bool {
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}

func (s *refSim) Now() Time { return s.now }

func (s *refSim) At(at Time, fn func()) *refTimer {
	if at < s.now {
		at = s.now
	}
	t := &refTimer{}
	s.seq++
	heap.Push(&s.events, &refEvent{at: at, seq: s.seq, fn: fn, timer: t})
	return t
}

func (s *refSim) After(d Time, fn func()) *refTimer { return s.At(s.now+d, fn) }

func (s *refSim) Run(until Time) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.step()
	}
	if s.now < until {
		s.now = until
	}
}

func (s *refSim) RunUntilIdle() {
	for len(s.events) > 0 {
		s.step()
	}
}

func (s *refSim) step() {
	ev := heap.Pop(&s.events).(*refEvent)
	s.now = ev.at
	if ev.timer.stopped {
		return
	}
	ev.timer.fired = true
	ev.fn()
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	timer *refTimer
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// scheduler is what the differential test drives on either side.
type scheduler interface {
	Now() Time
	Run(until Time)
	RunUntilIdle()
	// schedule calls At (or After, when after is set) and returns the
	// timer's Stop.
	schedule(t Time, after bool, fn func()) func() bool
}

type simSched struct{ *Sim }

func (s simSched) schedule(t Time, after bool, fn func()) func() bool {
	if after {
		return s.After(t, fn).Stop
	}
	return s.At(t, fn).Stop
}

type refSched struct{ *refSim }

func (s refSched) schedule(t Time, after bool, fn func()) func() bool {
	if after {
		return s.After(t, fn).Stop
	}
	return s.At(t, fn).Stop
}

// diffSide is one scheduler under a seeded random workload. Both sides
// draw from their own copy of the same random stream, so they make the
// same calls for as long as they fire the same callbacks in the same
// order.
type diffSide struct {
	s         scheduler
	rng       *rand.Rand
	stops     []func() bool // by timer id, in scheduling order
	log       []string
	lastFired Time
}

// when draws a time on a coarse grid around Now, so that many timers
// share a time and some lie in the past.
func (d *diffSide) when() (Time, bool) {
	if d.rng.Intn(3) == 0 {
		return Time(d.rng.Intn(8)) * time.Millisecond, true // After
	}
	return d.s.Now() + Time(d.rng.Intn(12)-3)*time.Millisecond, false
}

func (d *diffSide) schedule(depth int) {
	id := len(d.stops)
	t, after := d.when()
	d.stops = append(d.stops, d.s.schedule(t, after, func() { d.fire(id, depth) }))
	d.log = append(d.log, fmt.Sprintf("schedule %d at %v after=%v", id, t, after))
}

// stop stops a random timer: pending, fired or already stopped.
func (d *diffSide) stop() {
	if len(d.stops) == 0 {
		return
	}
	id := d.rng.Intn(len(d.stops))
	d.log = append(d.log, fmt.Sprintf("stop %d = %v", id, d.stops[id]()))
}

func (d *diffSide) fire(id, depth int) {
	d.lastFired = d.s.Now()
	d.log = append(d.log, fmt.Sprintf("fire %d at %v", id, d.s.Now()))
	if depth >= 3 {
		return
	}
	for n := d.rng.Intn(4); n > 0; n-- {
		switch d.rng.Intn(5) {
		case 0, 1:
			d.schedule(depth + 1)
		case 2:
			d.stop()
		case 3:
			r := d.stops[id]() // a callback stopping its own timer
			d.log = append(d.log, fmt.Sprintf("self-stop %d = %v", id, r))
		case 4:
			// Stop the timer scheduled last, often pending at this time.
			last := len(d.stops) - 1
			d.log = append(d.log, fmt.Sprintf("stop %d = %v", last, d.stops[last]()))
		}
	}
}

// TestSchedulerDifferential runs Sim and the flag-based reference
// scheduler through the same seeded random interleavings of At, After,
// Stop, Run and RunUntilIdle, nested inside callbacks too, and requires
// the same callbacks in the same order at the same times, the same Stop
// results and the same Now after every call. The one intended
// difference: after RunUntilIdle, Sim's Now is the time of the last
// callback that fired, where the reference's could be that of a stopped
// timer queued after it.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		sim := &diffSide{s: simSched{New(seed)}, rng: rand.New(rand.NewSource(seed))}
		ref := &diffSide{s: refSched{&refSim{}}, rng: rand.New(rand.NewSource(seed))}
		for op := 0; op < 300; op++ {
			var what string
			for _, d := range []*diffSide{sim, ref} {
				switch k := d.rng.Intn(10); {
				case k < 5:
					what = "schedule"
					d.schedule(0)
				case k < 7:
					what = "stop"
					d.stop()
				case k < 9:
					until := d.s.Now() + Time(d.rng.Intn(10))*time.Millisecond
					what = fmt.Sprintf("Run(%v)", until)
					d.s.Run(until)
				default:
					what = "RunUntilIdle"
					d.lastFired = d.s.Now()
					d.s.RunUntilIdle()
				}
				d.log = append(d.log, fmt.Sprintf("%s: now %v", what, d.s.Now()))
			}
			if what == "RunUntilIdle" {
				if sim.s.Now() != sim.lastFired {
					t.Fatalf("seed %d op %d: RunUntilIdle left Now at %v, the last callback fired at %v",
						seed, op, sim.s.Now(), sim.lastFired)
				}
				if ref.s.Now() < sim.s.Now() {
					t.Fatalf("seed %d op %d: reference Now %v before Sim's %v", seed, op, ref.s.Now(), sim.s.Now())
				}
				// Sim's queue is empty: catch its clock up with the
				// reference's stopped timers and drop the one line
				// that may differ.
				sim.s.Run(ref.s.Now())
				sim.log = sim.log[:len(sim.log)-1]
				ref.log = ref.log[:len(ref.log)-1]
			}
			if d := firstDiff(sim.log, ref.log); d != "" {
				t.Fatalf("seed %d op %d (%s):\n%s", seed, op, what, d)
			}
			sim.log, ref.log = sim.log[:0], ref.log[:0]
		}
	}
}

// firstDiff describes the first line where a and b differ, or returns "".
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: got %q, reference %q", i, x, y)
		}
	}
	return ""
}
