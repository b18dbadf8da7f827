package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 3) }) // tie: scheduling order
	s.At(30*time.Millisecond, func() { got = append(got, 4) })
	s.RunUntilIdle()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSchedulerNestedEvents(t *testing.T) {
	s := New(1)
	var fired []Time
	s.After(time.Second, func() {
		fired = append(fired, s.Now())
		s.After(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.RunUntilIdle()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Error("Stop on pending timer should return true")
	}
	if tm.Stop() {
		t.Error("second Stop should return false")
	}
	s.RunUntilIdle()
	if ran {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(time.Second, func() {})
	s.RunUntilIdle()
	if tm.Stop() {
		t.Error("Stop after firing should return false")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*time.Second, func() { count++ })
	}
	s.Run(3 * time.Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
	s.Run(10 * time.Second)
	if count != 5 || s.Now() != 10*time.Second {
		t.Fatalf("count=%d Now=%v", count, s.Now())
	}
}

func TestSchedulePastClamps(t *testing.T) {
	s := New(1)
	var at Time
	s.After(time.Second, func() {
		s.At(0, func() { at = s.Now() }) // in the past: runs now
	})
	s.RunUntilIdle()
	if at != time.Second {
		t.Fatalf("past event ran at %v, want 1s", at)
	}
}

func TestLinkTiming(t *testing.T) {
	s := New(1)
	var deliveredAt Time
	sink := HandlerFunc(func(p *Packet) { deliveredAt = s.Now() })
	l := NewLink(s, LinkConfig{
		Name: "l", Rate: 1000, Delay: 10 * time.Millisecond, Dst: sink,
	})
	l.Send(&Packet{Size: 1000})
	s.RunUntilIdle()
	// 1000 bytes at 1000 B/s = 1 s transmission + 10 ms propagation.
	want := time.Second + 10*time.Millisecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if l.Delivered.Packets != 1 || l.Delivered.Bytes != 1000 {
		t.Fatalf("counters: %+v", l.Delivered)
	}
}

func TestLinkSerialization(t *testing.T) {
	s := New(1)
	var times []Time
	sink := HandlerFunc(func(p *Packet) { times = append(times, s.Now()) })
	l := NewLink(s, LinkConfig{Name: "l", Rate: 1000, Delay: 0, Dst: sink})
	l.Send(&Packet{Size: 500})
	l.Send(&Packet{Size: 500})
	s.RunUntilIdle()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[0] != 500*time.Millisecond || times[1] != time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	s := New(1)
	var sink Sink
	l := NewLink(s, LinkConfig{
		Name: "l", Rate: 1000, Queue: NewDropTail(2), Dst: &sink,
	})
	// First packet goes straight to the transmitter; next two queue; the
	// rest drop.
	for i := 0; i < 6; i++ {
		l.Send(&Packet{Size: 100})
	}
	s.RunUntilIdle()
	if sink.Packets != 3 {
		t.Fatalf("delivered = %d, want 3", sink.Packets)
	}
	if l.QueueDrops.Packets != 3 {
		t.Fatalf("queue drops = %d, want 3", l.QueueDrops.Packets)
	}
}

func TestLinkLoss(t *testing.T) {
	s := New(42)
	var sink Sink
	l := NewLink(s, LinkConfig{
		Name: "l", Rate: 1e9, Loss: Bernoulli{P: 0.3},
		Queue: &DropTail{}, // unlimited: every packet reaches the medium
		Dst:   &sink,
	})
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 10})
	}
	s.RunUntilIdle()
	lossRate := float64(l.MediumDrops.Packets) / n
	if math.Abs(lossRate-0.3) > 0.02 {
		t.Fatalf("loss rate = %v, want ~0.3", lossRate)
	}
	if sink.Packets+l.MediumDrops.Packets != n {
		t.Fatal("packets neither delivered nor dropped")
	}
}

func TestLinkTap(t *testing.T) {
	s := New(1)
	var tapped int
	var sink Sink
	l := NewLink(s, LinkConfig{Name: "l", Rate: 1e6, Dst: &sink})
	l.Tap = func(now Time, p *Packet) { tapped += p.Size }
	l.Send(&Packet{Size: 300})
	s.RunUntilIdle()
	if tapped != 300 {
		t.Fatalf("tap saw %d bytes", tapped)
	}
}

func TestLinkUtilization(t *testing.T) {
	s := New(1)
	var sink Sink
	l := NewLink(s, LinkConfig{Name: "l", Rate: 1000, Dst: &sink})
	l.Send(&Packet{Size: 500})
	s.RunUntilIdle()
	u := l.Utilization(time.Second)
	if math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if l.Utilization(0) != 0 {
		t.Error("zero elapsed should be 0")
	}
}

func TestRouter(t *testing.T) {
	s := New(1)
	var a, b, def Sink
	r := NewRouter(&def)
	la := NewLink(s, LinkConfig{Name: "a", Rate: 1e6, Dst: &a})
	r.Route(1, la)
	r.Route(2, HandlerFunc(func(p *Packet) { b.Recv(p) }))
	r.Recv(&Packet{Flow: 1, Size: 10})
	r.Recv(&Packet{Flow: 2, Size: 10})
	r.Recv(&Packet{Flow: 9, Size: 10})
	s.RunUntilIdle()
	if a.Packets != 1 || b.Packets != 1 || def.Packets != 1 {
		t.Fatalf("a=%d b=%d def=%d", a.Packets, b.Packets, def.Packets)
	}
}

func TestRouterNoDefault(t *testing.T) {
	r := NewRouter(nil)
	r.Recv(&Packet{Flow: 5}) // must not panic
}

func TestDropTailByteLimit(t *testing.T) {
	q := &DropTail{LimitPkts: 100, LimitBytes: 250}
	rng := rand.New(rand.NewSource(1))
	ok1 := q.Enqueue(0, rng, &Packet{Size: 100})
	ok2 := q.Enqueue(0, rng, &Packet{Size: 100})
	ok3 := q.Enqueue(0, rng, &Packet{Size: 100}) // would exceed 250 bytes
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("byte limit: %v %v %v", ok1, ok2, ok3)
	}
	if q.Bytes() != 200 || q.Len() != 2 {
		t.Fatalf("Bytes=%d Len=%d", q.Bytes(), q.Len())
	}
}

func TestFIFOOrder(t *testing.T) {
	q := NewDropTail(10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		q.Enqueue(0, rng, &Packet{Flow: FlowID(i), Size: 1})
	}
	for i := 0; i < 5; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Flow != FlowID(i) {
			t.Fatalf("dequeue %d: %+v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Error("empty queue should return nil")
	}
}

// A queue that never drains reuses its slots: with 50 packets standing
// and a million passed through, the backing array stays within twice
// the peak occupancy, and packets still leave in arrival order.
func TestStandingQueueBounded(t *testing.T) {
	const standing, passed = 50, 1_000_000
	q := NewDropTail(100)
	rng := rand.New(rand.NewSource(1))
	pkts := make([]Packet, standing+1)
	for i := 0; i < standing; i++ {
		pkts[i].Flow = FlowID(i)
		q.Enqueue(0, rng, &pkts[i])
	}
	for i := standing; i < standing+passed; i++ {
		p := &pkts[i%len(pkts)]
		p.Flow = FlowID(i)
		if !q.Enqueue(0, rng, p) {
			t.Fatalf("packet %d dropped with %d queued", i, q.Len())
		}
		if got := q.Dequeue(0); got.Flow != FlowID(i-standing) {
			t.Fatalf("dequeued flow %d, want %d", got.Flow, i-standing)
		}
	}
	if q.Len() != standing {
		t.Fatalf("Len = %d, want %d", q.Len(), standing)
	}
	if slots := cap(q.q.buf); slots > 2*(standing+1) {
		t.Fatalf("queue holds %d slots for a peak of %d packets", slots, standing+1)
	}
}

func TestREDNoDropsWhenIdle(t *testing.T) {
	q := NewRED(5, 15, 0.1, 50)
	rng := rand.New(rand.NewSource(1))
	drops := 0
	// Keep the queue nearly empty: enqueue one, dequeue one.
	for i := 0; i < 1000; i++ {
		if !q.Enqueue(0, rng, &Packet{Size: 1}) {
			drops++
		} else {
			q.Dequeue(0)
		}
	}
	if drops != 0 {
		t.Fatalf("RED dropped %d below MinTh", drops)
	}
}

func TestREDDropsUnderLoad(t *testing.T) {
	q := NewRED(5, 15, 0.1, 1000)
	rng := rand.New(rand.NewSource(1))
	drops := 0
	// Fill without draining: average climbs past MaxTh and drops begin.
	for i := 0; i < 20000; i++ {
		if !q.Enqueue(0, rng, &Packet{Size: 1}) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped under sustained load")
	}
	if q.AvgQueue() < 5 {
		t.Fatalf("avg queue = %v, expected it to climb", q.AvgQueue())
	}
}

func TestGilbertElliottMeanRate(t *testing.T) {
	g := NewGilbertElliott(0.001, 0.3, 0.01, 0.1)
	want := g.MeanLossRate()
	rng := rand.New(rand.NewSource(123))
	const n = 300000
	lost := 0
	for i := 0; i < n; i++ {
		if g.Lose(rng, nil) {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-want) > 0.15*want+0.002 {
		t.Fatalf("empirical loss %v, stationary %v", got, want)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// With the same mean rate, GE losses must be more clumped than
	// Bernoulli: measure the probability that a loss follows a loss.
	g := NewGilbertElliott(0.0, 0.5, 0.005, 0.05)
	rng := rand.New(rand.NewSource(5))
	const n = 200000
	var lossAfterLoss, losses int
	prev := false
	for i := 0; i < n; i++ {
		l := g.Lose(rng, nil)
		if l {
			losses++
			if prev {
				lossAfterLoss++
			}
		}
		prev = l
	}
	mean := float64(losses) / n
	condit := float64(lossAfterLoss) / float64(losses)
	if condit < 2*mean {
		t.Fatalf("GE not bursty: P(loss|loss)=%v mean=%v", condit, mean)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, int) {
		s := New(77)
		var sink Sink
		l := NewLink(s, LinkConfig{
			Name: "l", Rate: 1e5, Delay: time.Millisecond,
			Queue: NewRED(5, 15, 0.1, 50), Loss: Bernoulli{P: 0.05}, Dst: &sink,
		})
		for i := 0; i < 2000; i++ {
			s.At(Time(i)*100*time.Microsecond, func() {
				l.Send(&Packet{Size: 100})
			})
		}
		s.RunUntilIdle()
		return sink.Packets, l.MediumDrops.Packets
	}
	p1, d1 := run()
	p2, d2 := run()
	if p1 != p2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", p1, d1, p2, d2)
	}
}

func BenchmarkSimEventThroughput(b *testing.B) {
	s := New(1)
	var sink Sink
	l := NewLink(s, LinkConfig{Name: "l", Rate: 1e9, Delay: time.Microsecond, Dst: &sink})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Send(&Packet{Size: 1000})
		if i%64 == 0 {
			s.RunUntilIdle()
		}
	}
	s.RunUntilIdle()
}
