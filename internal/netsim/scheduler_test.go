package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
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
	rng    *rand.Rand // for refLink's queues and loss models
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
	send      func() // when set, a firing timer may call it
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
	t, after := d.when()
	d.scheduleAt(t, after, depth)
}

func (d *diffSide) scheduleAt(t Time, after bool, depth int) {
	id := len(d.stops)
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
	if d.send != nil && d.rng.Intn(3) == 0 {
		d.send()
	}
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

// op makes one random top-level call on d, logs it and says what it
// was.
func (d *diffSide) op() string {
	var what string
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
	return what
}

// compareOp fails t at the first difference between the logs of the op
// both sides just made, then empties the logs. After RunUntilIdle the
// reference's Now may be that of a stopped timer queued after the last
// callback: Sim's queue is empty, so its clock is caught up with the
// reference's and the one line that may differ is dropped.
func compareOp(t *testing.T, seed int64, op int, what string, sim, ref *diffSide) {
	t.Helper()
	if what == "RunUntilIdle" {
		if ref.s.Now() < sim.s.Now() {
			t.Fatalf("seed %d op %d: reference Now %v before Sim's %v", seed, op, ref.s.Now(), sim.s.Now())
		}
		sim.s.Run(ref.s.Now())
		sim.dropNowLine()
		ref.dropNowLine()
	}
	if d := firstDiff(sim.log, ref.log); d != "" {
		t.Fatalf("seed %d op %d (%s):\n%s", seed, op, what, d)
	}
	sim.log, ref.log = sim.log[:0], ref.log[:0]
}

// dropNowLine drops the last "RunUntilIdle: now" line from the log.
func (d *diffSide) dropNowLine() {
	for i := len(d.log) - 1; i >= 0; i-- {
		if strings.HasPrefix(d.log[i], "RunUntilIdle: now") {
			d.log = append(d.log[:i], d.log[i+1:]...)
			return
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
			sim.op()
			what := ref.op()
			if what == "RunUntilIdle" && sim.s.Now() != sim.lastFired {
				t.Fatalf("seed %d op %d: RunUntilIdle left Now at %v, the last callback fired at %v",
					seed, op, sim.s.Now(), sim.lastFired)
			}
			compareOp(t, seed, op, what, sim, ref)
		}
	}
}

// refLink is the link as it was while every packet took two events of
// its own: After for the end of its transmission, then After with a
// closure over the packet for its arrival, on a refSim. It is the
// reference TestLinkDifferential compares Link against.
type refLink struct {
	sim   *refSim
	rate  float64
	delay Time
	queue Queue
	loss  LossModel
	dst   Handler
	txing *Packet

	Sent, Delivered, QueueDrops, MediumDrops Counter
}

func (l *refLink) Recv(p *Packet) {
	if !l.queue.Enqueue(l.sim.now, l.sim.rng, p) {
		l.QueueDrops.add(p)
		return
	}
	l.Sent.add(p)
	if l.txing == nil {
		l.transmitNext()
	}
}

func (l *refLink) transmitNext() {
	p := l.queue.Dequeue(l.sim.now)
	l.txing = p
	if p == nil {
		return
	}
	l.sim.After(Time(float64(p.Size)/l.rate*float64(time.Second)), l.transmitted)
}

func (l *refLink) transmitted() {
	p := l.txing
	l.transmitNext()
	if l.loss != nil && l.loss.Lose(l.sim.rng, p) {
		l.MediumDrops.add(p)
		return
	}
	l.sim.After(l.delay, func() {
		l.Delivered.add(p)
		l.dst.Recv(p)
	})
}

// linkDiffSide is one side of TestLinkDifferential: a diffSide whose
// timers, and whose receivers, also send packets into a topology of
// links.
type linkDiffSide struct {
	*diffSide
	entry    []Handler           // where new packets go in
	counters []func() [4]Counter // every link's Sent, Delivered, QueueDrops, MediumDrops
	packets  int
}

// diffPacket is a test packet's payload: its id and how many packets
// led to it being sent.
type diffPacket struct{ id, gen int }

// newLinkDiffSide builds the topology on one side: entry links a and b
// (DropTail with loss, RED without delay) feed a Router that sends flow
// 0 over link c (DropTail with a byte limit and loss), flow 1 over link
// d (RED) and anything else straight on; c also takes packets directly.
// Rates and packet sizes put every transmission and arrival on a 125 µs
// grid, so they often coincide with each other and with the timers,
// which lie on a 1 ms grid. newLink makes one link from cfg.
func newLinkDiffSide(d *diffSide, newLink func(cfg LinkConfig) (Handler, func() [4]Counter)) *linkDiffSide {
	side := &linkDiffSide{diffSide: d}
	link := func(cfg LinkConfig) Handler {
		h, c := newLink(cfg)
		side.counters = append(side.counters, c)
		return h
	}
	recv := func(name string) Handler {
		return HandlerFunc(func(p *Packet) { side.recv(name, p) })
	}
	c := link(LinkConfig{Name: "c", Rate: 1e6, Delay: 2 * time.Millisecond,
		Queue: &DropTail{LimitPkts: 8, LimitBytes: 6000}, Loss: Bernoulli{P: 0.1}, Dst: recv("c")})
	dd := link(LinkConfig{Name: "d", Rate: 2e6, Delay: time.Millisecond,
		Queue: NewRED(2, 5, 0.2, 12), Dst: recv("d")})
	r := NewRouter(recv("router"))
	r.Route(0, c)
	r.Route(1, dd)
	a := link(LinkConfig{Name: "a", Rate: 1e6, Delay: 3 * time.Millisecond,
		Queue: NewDropTail(6), Loss: Bernoulli{P: 0.05}, Dst: r})
	b := link(LinkConfig{Name: "b", Rate: 5e5,
		Queue: NewRED(1, 4, 0.3, 8), Dst: r})
	side.entry = []Handler{a, b, c}
	d.send = func() { side.sendNew(0) }
	return side
}

// sendNew sends a fresh packet of a random flow and size into a random
// entry link.
func (s *linkDiffSide) sendNew(gen int) {
	id := s.packets
	s.packets++
	p := &Packet{Flow: FlowID(s.rng.Intn(3)), Size: 250 * (1 + s.rng.Intn(8)), Payload: diffPacket{id, gen}}
	in := s.rng.Intn(len(s.entry))
	s.log = append(s.log, fmt.Sprintf("send %d flow %d size %d into %d at %v", id, p.Flow, p.Size, in, s.s.Now()))
	s.entry[in].Recv(p)
}

// recv logs a packet leaving the topology and reacts: a timer at Now,
// one After(0), a packet sent on, or a Stop.
func (s *linkDiffSide) recv(name string, p *Packet) {
	dp := p.Payload.(diffPacket)
	s.log = append(s.log, fmt.Sprintf("recv %d via %s at %v", dp.id, name, s.s.Now()))
	switch s.rng.Intn(5) {
	case 0:
		s.scheduleAt(s.s.Now(), false, 1)
	case 1:
		s.scheduleAt(0, true, 1)
	case 2:
		if dp.gen < 3 {
			s.sendNew(dp.gen + 1)
		}
	case 3:
		s.stop()
	}
}

// op makes one random top-level call, a packet sent in or one of
// diffSide's, and logs every link's counters after it.
func (s *linkDiffSide) op() string {
	what := "send"
	if s.rng.Intn(3) == 0 {
		s.sendNew(0)
	} else {
		what = s.diffSide.op()
	}
	for i, c := range s.counters {
		s.log = append(s.log, fmt.Sprintf("link %d counters %v", i, c()))
	}
	return what
}

// TestLinkDifferential runs Link, which holds at most two places in the
// event queue, and refLink, which schedules two events per packet,
// through the same seeded random traffic over chained links, with
// DropTail and RED queues, Bernoulli loss and timers that land on the
// same instants as transmissions and arrivals, scheduled and stopped
// from timers and from receivers alike. It requires the same callbacks
// in the same order at the same times and the same link counters after
// every call.
func TestLinkDifferential(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		sim := New(seed)
		ref := &refSim{rng: rand.New(rand.NewSource(seed))}
		simSide := newLinkDiffSide(&diffSide{s: simSched{sim}, rng: rand.New(rand.NewSource(seed))},
			func(cfg LinkConfig) (Handler, func() [4]Counter) {
				l := NewLink(sim, cfg)
				return l, func() [4]Counter { return [4]Counter{l.Sent, l.Delivered, l.QueueDrops, l.MediumDrops} }
			})
		refSide := newLinkDiffSide(&diffSide{s: refSched{ref}, rng: rand.New(rand.NewSource(seed))},
			func(cfg LinkConfig) (Handler, func() [4]Counter) {
				l := &refLink{sim: ref, rate: cfg.Rate, delay: cfg.Delay, queue: cfg.Queue, loss: cfg.Loss, dst: cfg.Dst}
				return l, func() [4]Counter { return [4]Counter{l.Sent, l.Delivered, l.QueueDrops, l.MediumDrops} }
			})
		for op := 0; op < 400; op++ {
			simSide.op()
			what := refSide.op()
			compareOp(t, seed, op, what, simSide.diffSide, refSide.diffSide)
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
