package qtp

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// footprintConns is how many pairs each reading is taken over.
const footprintConns = 100

// footprintState brings a fresh pair to one of the states the footprint
// is read in.
type footprintState struct {
	name string
	run  func(t *testing.T, p *allocPair)
}

var footprintStates = []footprintState{
	{"idle", func(*testing.T, *allocPair) {}},
	// One 256 B message sent and arrived, unread; its acknowledgment has
	// not reached the sender.
	{"message", func(t *testing.T, p *allocPair) {
		p.snd.Write(make([]byte, 256))
		p.sendWindow(t)
	}},
	// 64 frames' worth sent and arrived, unread, none acknowledged.
	{"window", func(t *testing.T, p *allocPair) {
		p.snd.Write(make([]byte, 64*p.snd.profile.MSS))
		p.sendWindow(t)
	}},
	// 64 frames' worth sent, acknowledged and read: nothing in flight.
	{"drained", func(t *testing.T, p *allocPair) {
		p.block(t)
		for p.snd.sendByID[0].buf.Unresolved() {
			p.step(t)
		}
		p.receive(true)
	}},
}

// sendWindow polls the sender until its backlog is sent, handing every
// frame straight to the receiver, whose acknowledgments are dropped.
func (p *allocPair) sendWindow(t *testing.T) {
	for {
		for p.fwd.send(t, p.snd, p.now, p.now) {
		}
		p.fwd.deliver(p.rcv, p.now)
		for p.rev.send(t, p.rcv, p.now, p.now) {
		}
		p.rev = delayLine{}
		if p.snd.BacklogLen() == 0 {
			return
		}
		next, ok := p.snd.NextWake(p.now)
		if !ok {
			t.Fatal("sender idle with data queued")
		}
		p.now = max(p.now, next)
	}
}

// footprintBounds are the most heap bytes one connection may hold, by
// state and side, under either framing. A sender's bytes wait in its
// SendBuffer from Write until they are acknowledged: one message takes a
// 2 KiB chunk, 64 frames' worth the chunk and two 64 KiB pages. Drained,
// a sender holds what it held idle plus the segment ring its flight grew
// to (64 slots, 4 KiB): a page or a chunk kept past the drain breaks the
// bound.
var footprintBounds = map[string]struct{ snd, rcv uint64 }{
	"idle":    {1_700, 1_450},
	"message": {5_000, 4_100},
	"window":  {139_500, 135_500},
	"drained": {6_000, 2_100},
}

// TestFootprint reads the heap bytes a connection holds, the sender and
// the receiver apart: footprintConns pairs are brought to a state, then
// the senders and then the receivers are dropped, and each side's share
// is the fall in HeapAlloc after two collections (one empties the pools'
// caches, the next frees what they held) divided by the pairs.
func TestFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, framing := range []struct {
		name    string
		streams int
	}{{"unprefixed", 0}, {"prefixed", 8}} {
		for _, st := range footprintStates {
			name := framing.name + "/" + st.name
			t.Run(name, func(t *testing.T) {
				snd, rcv := footprint(t, framed(core.QTPAF(1e9), framing.streams), st)
				bound := footprintBounds[st.name]
				t.Logf("sender %d B, receiver %d B per connection", snd, rcv)
				if snd > bound.snd {
					t.Errorf("sender holds %d B, bound %d", snd, bound.snd)
				}
				if rcv > bound.rcv {
					t.Errorf("receiver holds %d B, bound %d", rcv, bound.rcv)
				}
			})
		}
	}
}

// footprint brings footprintConns pairs running prof to st and returns
// the bytes each sender and each receiver holds.
func footprint(t *testing.T, prof core.Profile, st footprintState) (snd, rcv uint64) {
	snds := make([]*Conn, footprintConns)
	rcvs := make([]*Conn, footprintConns)
	for i := range snds {
		p := newPair(prof.Normalize())
		st.run(t, p)
		checkFraming(t, p.snd, prof.MaxStreams)
		snds[i], rcvs[i] = p.snd, p.rcv
	}
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	all := heap()
	runtime.KeepAlive(snds)
	snds = nil
	rcvOnly := heap()
	runtime.KeepAlive(rcvs)
	rcvs = nil
	none := heap()
	return (all - rcvOnly) / footprintConns, (rcvOnly - none) / footprintConns
}
