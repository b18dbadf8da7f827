package qtp

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
)

// raceEnabled reports a -race build (race_test.go sets it), whose
// instrumentation allocates where the plain build does not.
var raceEnabled bool

// delayLine is one direction of a fixed-delay path whose frames live in
// buffers allocated once: a ring of frames in send order, which is
// arrival order.
type delayLine struct {
	at    [256]time.Duration
	frame [256][]byte
	head  int
	n     int

	sent int                 // frames polled into the line
	lose func(sent int) bool // when set, drops the frame it is true for
}

// send polls c for one frame into the line's next buffer, to arrive at
// at; false when c has nothing due. A frame the line loses is polled and
// dropped.
func (l *delayLine) send(t *testing.T, c *Conn, now, at time.Duration) bool {
	if l.n == len(l.frame) {
		t.Fatal("delay line full")
	}
	i := (l.head + l.n) % len(l.frame)
	if l.frame[i] == nil {
		l.frame[i] = make([]byte, 0, 2048)
	}
	f, ok := c.PollFrameAppend(now, l.frame[i][:0])
	if !ok {
		return false
	}
	if l.sent++; l.lose != nil && l.lose(l.sent-1) {
		return true
	}
	l.frame[i], l.at[i] = f, at
	l.n++
	return true
}

// deliver hands every frame due by now to c.
func (l *delayLine) deliver(c *Conn, now time.Duration) {
	for l.n > 0 && l.at[l.head] <= now {
		_ = c.HandleFrame(now, l.frame[l.head])
		l.head = (l.head + 1) % len(l.frame)
		l.n--
	}
}

// allocPair is a direct sender/receiver pair, unencrypted, joined by a
// 50 µs delay line each way and stepped from event to event in virtual
// time.
type allocPair struct {
	snd, rcv *Conn
	fwd, rev delayLine
	now      time.Duration
	data     []byte // one block, 64 frames' worth

	// While counting, rxAllocs adds up the heap allocations made by the
	// receiving calls alone: HandleFrame on data, ReadStream, PutChunk.
	counting bool
	rxAllocs uint64
	reads    int  // chunks ReadStream returned while counting
	lag      bool // read once a block, not after every arrival
	hole     bool // lose each block's first frame, read after every arrival
	ms       runtime.MemStats
}

const allocOneWay = 50 * time.Microsecond

func newAllocPair() *allocPair { return newPair(core.QTPAF(1e9).Normalize()) }

// newPair is a pair running prof, which must be normalized.
func newPair(prof core.Profile) *allocPair {
	p := &allocPair{
		snd: NewConn(Config{Initiator: true, Profile: prof, ConnID: 1}),
		rcv: NewConn(Config{ConnID: 1}),
	}
	p.snd.StartDirect(0, prof, 2*allocOneWay)
	p.rcv.StartDirect(0, prof, 0)
	return p
}

// step moves the clock to the next event and runs everything due then:
// arrivals, reads, and whatever either side has to send.
func (p *allocPair) step(t *testing.T) {
	next, ok := p.snd.NextWake(p.now)
	earliest := func(at time.Duration, due bool) {
		if due && (!ok || at < next) {
			next, ok = at, true
		}
	}
	earliest(p.rcv.NextWake(p.now))
	earliest(p.fwd.at[p.fwd.head], p.fwd.n > 0)
	earliest(p.rev.at[p.rev.head], p.rev.n > 0)
	if !ok {
		t.Fatal("pair idle with data queued")
	}
	p.now = max(p.now, next)
	p.receive(!p.lag)
	p.rev.deliver(p.snd, p.now)
	for (p.snd.BacklogLen() > 0 || p.hole) && p.fwd.send(t, p.snd, p.now, p.now+allocOneWay) {
	}
	for p.rev.send(t, p.rcv, p.now, p.now+allocOneWay) {
	}
}

// receive hands the receiver the frames due now and, with read, reads
// everything delivered; while counting, it adds up what these calls
// allocate.
func (p *allocPair) receive(read bool) {
	var before uint64
	if p.counting {
		runtime.ReadMemStats(&p.ms)
		before = p.ms.Mallocs
	}
	p.fwd.deliver(p.rcv, p.now)
	for read {
		chunk, ok := p.rcv.ReadStream(0)
		if !ok {
			break
		}
		bufpool.PutChunk(chunk)
		if p.counting {
			p.reads++
		}
	}
	if p.counting {
		runtime.ReadMemStats(&p.ms)
		p.rxAllocs += p.ms.Mallocs - before
	}
}

// block writes 64 frames' worth and steps until the backlog is sent; a
// lagging pair reads at the end. A pair with a hole loses the block's
// first frame and steps on until its retransmission has arrived, so the
// other 63 wait behind it and are popped after it.
func (p *allocPair) block(t *testing.T) {
	if p.data == nil {
		p.data = make([]byte, 64*p.snd.profile.MSS)
	}
	if n := p.snd.Write(p.data); n != len(p.data) {
		t.Fatalf("backlog took %d of %d bytes", n, len(p.data))
	}
	if p.hole {
		first := p.fwd.sent
		p.fwd.lose = func(sent int) bool { return sent == first }
	}
	for p.snd.BacklogLen() > 0 {
		p.step(t)
	}
	for p.hole && p.snd.sendByID[0].buf.Unresolved() {
		p.step(t)
	}
	if p.lag {
		p.receive(true)
	}
}

// TestSendPathAllocFree holds the sender's steady state to no heap
// allocation: writing 64 frames' worth, polling the 64 data frames and
// handling the acknowledgments that come back. The scoreboard keeps the
// payloads in recycled pages; a per-connection arena carved from fresh
// 32 KiB blocks read 3 here.
func TestSendPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := newAllocPair()
	run := func() { p.block(t) }
	for i := 0; i < 200; i++ {
		run() // past slow start, every buffer grown to its size
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("%v allocations per 64 data frames sent", allocs)
	}
	st := p.snd.Stats()
	t.Logf("%d data frames, %d retransmitted, %v of virtual time", st.DataFramesSent, st.RetransFrames, p.now)
}

// TestReceivePathAllocFree holds the receiver's path to no heap
// allocation: blocks of 64 data frames through HandleFrame, read back
// with ReadStream and released with bufpool.PutChunk. A reader that
// keeps up reads after every arrival, one chunk a segment; a lagging
// reader reads once a block, mostly in runs. Behind a hole, each block's
// first frame is lost and the other 63 wait in the reassembler's run
// store, a chunk and two pages, until the retransmission pops them; the
// reader keeps up. Only those calls are counted; the sender, its
// retransmissions and the acknowledgments are TestSendPathAllocFree's.
// No collection runs while they are: a GC empties every sync.Pool, and
// the pool then allocates its per-P array and regrows its queues as it
// refills, which is the runtime's cost, not the receive path's.
func TestReceivePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// One P, as testing.AllocsPerRun runs: pooled chunks put on one P's
	// queue and taken from another's grow the queues, which allocates.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name      string
		lag, hole bool
	}{{"keeps-up", false, false}, {"lags", true, false}, {"behind-a-hole", false, true}} {
		t.Run(c.name, func(t *testing.T) {
			p := newAllocPair()
			p.lag, p.hole = c.lag, c.hole
			// Collect before the warm-up, which then refills the pools
			// and regrows their per-P queues, and hold collection off
			// while counting.
			runtime.GC()
			for i := 0; i < 200; i++ {
				p.block(t) // past slow start, every buffer grown to its size
			}
			const blocks = 50
			before := p.rcv.Stats().DeliveredBytes
			func() {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				p.counting = true
				for i := 0; i < blocks; i++ {
					p.block(t)
				}
				p.counting = false
			}()
			if got, want := p.rcv.Stats().DeliveredBytes-before, blocks*64*p.snd.profile.MSS; got < want*9/10 {
				t.Fatalf("%d bytes read in %d blocks, want about %d", got, blocks, want)
			}
			if p.rxAllocs != 0 {
				t.Errorf("%d allocations receiving %d blocks of 64 data frames", p.rxAllocs, blocks)
			}
			if c.lag && p.reads >= blocks*64/2 {
				t.Errorf("%d reads for %d blocks of 64 data frames: the in-order path made no runs", p.reads, blocks)
			}
			if c.hole && p.reads >= blocks*64/2 {
				t.Errorf("%d reads for %d blocks of 64 data frames: the held segments came in no runs", p.reads, blocks)
			}
			t.Logf("%d blocks of 64 data frames read in %d chunks, %d frames retransmitted in all",
				blocks, p.reads, p.snd.Stats().RetransFrames)
		})
	}
}
