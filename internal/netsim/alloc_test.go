package netsim

import (
	"testing"
	"time"
)

// raceEnabled reports a -race build (race_test.go sets it), whose
// instrumentation allocates.
var raceEnabled bool

// TestLinkAllocs pins what the simulator allocates in steady state: a
// scheduled callback is one Timer from a block of timerSlab, which
// rounds to 0 a call, cancelling it is free, and a packet through a link
// (send, transmit, propagate, deliver) allocates nothing: the link's two
// timers are its own.
func TestLinkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const runs = 1000
	s := New(1)
	fn := func() {}

	at := testing.AllocsPerRun(runs, func() {
		s.At(s.Now()+time.Microsecond, fn)
		s.RunUntilIdle()
	})

	pending := make([]*Timer, runs+1) // AllocsPerRun makes one warm-up call
	for i := range pending {
		pending[i] = s.After(time.Second, fn)
	}
	next := 0
	stop := testing.AllocsPerRun(runs, func() {
		pending[next].Stop()
		next++
	})

	var sink Sink
	l := NewLink(s, LinkConfig{Name: "l", Rate: 1e9, Delay: time.Millisecond, Dst: &sink})
	p := &Packet{Size: 1000}
	link := testing.AllocsPerRun(runs, func() {
		l.Send(p)
		s.RunUntilIdle()
	})

	if sink.Packets != runs+1 {
		t.Fatalf("delivered %d packets, want %d", sink.Packets, runs+1)
	}
	if at != 0 || stop != 0 || link != 0 {
		t.Fatalf("allocations: At %v (want 0), Stop %v (want 0), packet through a link %v (want 0)", at, stop, link)
	}
}
