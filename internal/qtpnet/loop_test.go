package qtpnet

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// parkedFor reports how far ahead the deadline the shard's loop is
// parked on lies: 0 while a round runs, the largest Duration when it
// sleeps with no deadline at all.
func parkedFor(sh *shard) time.Duration {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch sh.sleepUntil {
	case awake:
		return 0
	case math.MaxInt64:
		return math.MaxInt64
	}
	return sh.sleepUntil - sh.now()
}

// waitParked waits until the shard's loop sleeps on a deadline at least
// min away, so that whatever wakes it earlier in the test can only have
// been the edge under test.
func waitParked(t *testing.T, sh *shard, min time.Duration) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedFor(sh) < min {
		if time.Now().After(deadline) {
			t.Fatalf("loop never parked %v ahead (parked %v)", min, parkedFor(sh))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// quietGoroutines returns the goroutine count once it has stopped
// moving: Close does not wait for the loops it ends, and connections
// earlier tests left in their close grace die on their own schedule.
func quietGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for start := since; time.Since(since) < 200*time.Millisecond && time.Since(start) < 5*time.Second; {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now != n {
			n, since = now, time.Now()
		}
	}
	return n
}

// TestLoopGoroutines pins the goroutine budget: an endpoint costs one
// goroutine per shard, whatever the shard count, and every one of them
// dies with its socket.
func TestLoopGoroutines(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("Shards=%d", shards), func(t *testing.T) {
			// The count is process-wide; a goroutine left dying by an
			// earlier test can disturb one attempt, not three.
			var started, left int
			for attempt := 0; attempt < 3; attempt++ {
				base := quietGoroutines()
				e := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{AcceptInbound: true, Constraints: core.Permissive(1e6)}, shards)
				started = runtime.NumGoroutine() - base
				e.Close()
				left = quietGoroutines() - base
				if started == shards && left == 0 {
					return
				}
			}
			t.Errorf("NewEndpoint started %d goroutines for %d shards; %d left after Close", started, shards, left)
		})
	}
}

// establishedPair dials client -> server and returns both ends once the
// handshake's tail has gone quiet.
func establishedPair(t *testing.T, srv, client *Endpoint, profile core.Profile) (cc, sc *Conn) {
	t.Helper()
	accepted := make(chan *Conn, 1)
	go func() {
		if c, err := srv.Accept(); err == nil {
			accepted <- c
		}
	}()
	cc, err := client.Dial(srv.Addr().String(), profile, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case sc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server accepted nothing")
	}
	select {
	case <-cc.established:
	case <-time.After(5 * time.Second):
		t.Fatal("client never saw the Accept")
	}
	return cc, sc
}

// TestLoopKickFromWrite holds the one edge that crosses from an
// application goroutine into a parked loop: Write sends its first frame
// inline and leaves the second to the pacer, whose deadline is earlier
// than anything the idle loop sleeps on, so service must kick the loop
// out of its read. The peer is gone by then, so no acknowledgment can
// wake the loop in the kick's place: the second frame reaches the wire
// within the pacing gap plus scheduling slack or not before the old
// deadline. The wake-up is a deadline expiry, not a read: it moves
// neither RecvBatches nor Wakeups.
func TestLoopKickFromWrite(t *testing.T) {
	srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{AcceptInbound: true, Constraints: core.Permissive(1e6)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cc, _ := establishedPair(t, srv, client, core.QTPLight())
	time.Sleep(100 * time.Millisecond) // let the handshake's tail land
	srv.Close()

	const slack, parked = 250 * time.Millisecond, 2 * time.Second
	waitParked(t, cc.sh, parked)
	parkedBefore := parkedFor(cc.sh)
	before := client.Stats()

	start := time.Now()
	if _, err := cc.Write(make([]byte, 2*core.DefaultMSS)); err != nil {
		t.Fatal(err)
	}
	cc.mu.Lock()
	wake, _ := cc.inner.NextWake(cc.sh.now())
	gap := wake - cc.sh.now()
	cc.mu.Unlock()
	if gap+slack > parkedBefore {
		t.Skipf("pacing gap %v, loop was parked %v ahead: a kick could not be told from the old deadline", gap, parkedBefore)
	}
	for client.Stats().DatagramsOut < before.DatagramsOut+2 {
		if time.Since(start) > gap+slack {
			t.Fatalf("second frame not sent %v after Write (pacing gap %v, loop was parked >= %v ahead): the kick was lost",
				time.Since(start), gap, parkedBefore)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("second frame out %v after Write, pacing gap %v", time.Since(start), gap)
	if st := client.Stats(); st.RecvBatches != before.RecvBatches || st.Wakeups != before.Wakeups {
		t.Errorf("a deadline expiry counted as a read: RecvBatches %d -> %d, Wakeups %d -> %d",
			before.RecvBatches, st.RecvBatches, before.Wakeups, st.Wakeups)
	}
}

// TestForwardWakesParkedLoop holds the other cross-goroutine edge: a
// frame forwarded to a shard whose loop sleeps with nothing to wake it —
// no datagram ever arrives on that shard's socket — is delivered at
// once and exactly once, because the forwarder kicks the owner's loop
// out of its read.
func TestForwardWakesParkedLoop(t *testing.T) {
	const nShards = 2
	srv := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{
		AcceptInbound:     true,
		Constraints:       core.Permissive(1e6),
		DisableEncryption: true, // the test hand-crafts a raw data frame
	}, nShards)
	defer srv.Close()
	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{DisableEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, sc := establishedPair(t, srv, client, core.QTPLight())
	owner := srv.shards[packet.CIDShard(sc.ID())]
	wrong := srv.shards[(owner.idx+1)%nShards]

	const slack = 250 * time.Millisecond
	waitParked(t, owner, 4*slack)
	base := sc.Stats().FramesReceived
	before := owner.stats()

	hdr := packet.Header{Type: packet.TypeData, ConnID: sc.ID(), Seq: 1, PayloadLen: 4}
	frame := append(hdr.AppendTo(nil), 'q', 't', 'p', '!')
	start := time.Now()
	if !wrong.deliver(netip.MustParseAddrPort("127.0.0.1:4242"), frame) {
		t.Fatal("wrong-shard deliver rejected the frame instead of forwarding it")
	}
	for sc.Stats().FramesReceived == base {
		if time.Since(start) > slack {
			t.Fatalf("forwarded frame not delivered after %v (owner's loop was parked >= %v ahead): the inbox did not wake it", time.Since(start), 4*slack)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // a second delivery would have landed by now
	if got := sc.Stats().FramesReceived - base; got != 1 {
		t.Errorf("forwarded frame delivered %d times, want exactly 1", got)
	}
	st := owner.stats()
	if st.CrossShardRecv != before.CrossShardRecv+1 {
		t.Errorf("owner took %d frames from its inbox, want 1", st.CrossShardRecv-before.CrossShardRecv)
	}
	if st.RecvBatches != before.RecvBatches || st.Wakeups != before.Wakeups || st.DatagramsIn != before.DatagramsIn {
		t.Errorf("owner's socket counters moved (%v -> %v); the frame came through the inbox", before, st)
	}
}

// manualShard builds a one-shard endpoint whose loop the test starts
// itself (or never), on a real socket.
func manualShard(t *testing.T) *shard {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	e := &Endpoint{cfg: EndpointConfig{}.resolved(), done: make(chan struct{})}
	e.shards = []*shard{newShard(e, 0, pc)}
	t.Cleanup(func() { e.Close() })
	return e.shards[0]
}

// floodedIO is a socket that always has data: every read returns one
// runt at once, parked or not.
type floodedIO struct {
	batchIO
	done <-chan struct{}
}

func (f floodedIO) readBatch(ms []ioMsg, park bool) (int, error) {
	select {
	case <-f.done:
		return 0, net.ErrClosed
	default:
	}
	ms[0].n, ms[0].segSize = 1, 0
	return 1, nil
}

// TestLoopFloodedSocketKeepsDeadlines is the first half of the loop's
// fairness rule: reads that never come back empty must not starve the
// timer heap. The only thing that retransmits a Connect nobody answers
// is its deadline.
func TestLoopFloodedSocketKeepsDeadlines(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sh := manualShard(t)
	sh.bio = floodedIO{sh.bio, sh.ep.done}
	sh.start()

	if _, err := sh.ep.Dial(sink.LocalAddr().String(), core.QTPLight(), 700*time.Millisecond); err != errHandshakeTimeout {
		t.Fatalf("Dial into a silent peer = %v, want %v", err, errHandshakeTimeout)
	}
	connects := 0
	buf := make([]byte, maxDatagram)
	for {
		sink.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, _, err := sink.ReadFromUDPAddrPort(buf)
		if err != nil {
			break
		}
		if typ, _, ok := classify(buf[:n]); ok && typ == packet.TypeConnect {
			connects++
		}
	}
	if connects < 2 {
		t.Errorf("%d Connect(s) sent in 700 ms under a flooded socket; the retransmission deadline (%v) starved", connects, 200*time.Millisecond)
	}
	if sh.noRoute.Load() == 0 {
		t.Error("the flood never reached the demux")
	}
}

// TestLoopDueHeadStillReads is the other half: with the heap's head
// already due the loop does not park, but its read still reaches the
// socket — even through a deadline a kick left expired — and comes back
// at once when the socket is empty.
func TestLoopDueHeadStillReads(t *testing.T) {
	sh := manualShard(t) // loop never started: the test plays it
	src, err := net.DialUDP("udp", nil, sh.pc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ms := []ioMsg{{buf: make([]byte, maxDatagram)}}
	var sc rxScratch
	due := &Conn{heapIdx: -1}
	// armDue puts due at the heap's head, already due, behind a deadline
	// a kick left expired, and checks arm pops it instead of parking.
	armDue := func() {
		t.Helper()
		sh.mu.Lock()
		sh.timers.set(due, 0)
		sh.kick()
		sh.mu.Unlock()
		if sh.arm(&sc) || len(sc.touched) != 1 || sc.touched[0] != due {
			t.Fatalf("arm with the heap's head due: parked or popped %d connections", len(sc.touched))
		}
		sc.touched = sc.touched[:0]
	}

	armDue()
	start := time.Now()
	if n, err := sh.bio.readBatch(ms, false); n != 0 || err != nil {
		t.Fatalf("attempt on an empty socket = %d, %v; want an empty batch", n, err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("attempt on an empty socket took %v: it parked", d)
	}

	if _, err := src.Write([]byte("datagram")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // loopback delivery
	// An attempt that comes back empty only after its attemptPark deadline
	// says the goroutine was descheduled past that deadline before the read
	// reached the socket: try again, a few times. A prompt empty attempt
	// fails at once.
	for try := 1; ; try++ {
		armDue()
		start := time.Now()
		n, err := sh.bio.readBatch(ms, false)
		if n == 0 && err == nil && time.Since(start) > attemptPark && try < 5 {
			continue
		}
		if n != 1 || err != nil || string(ms[0].buf[:ms[0].n]) != "datagram" {
			t.Fatalf("attempt %d with a datagram queued = %d, %v; the due head starved the socket", try, n, err)
		}
		break
	}

	// With the head in the future, and with no head, the loop parks —
	// and remembers until when.
	sh.mu.Lock()
	sh.timers.set(due, sh.now()+time.Hour)
	sh.mu.Unlock()
	if !sh.arm(&sc) || parkedFor(sh) < 59*time.Minute {
		t.Errorf("arm with the head an hour away: parked %v ahead", parkedFor(sh))
	}
	sh.mu.Lock()
	sh.timers.remove(due)
	sh.sleepUntil = awake
	sh.mu.Unlock()
	if !sh.arm(&sc) || parkedFor(sh) != math.MaxInt64 {
		t.Errorf("arm on an empty heap: parked %v ahead, want no deadline", parkedFor(sh))
	}
}

// dyingIO is a socket that dies under a parked read, but not before a
// sibling's forwards have landed in the shard's inbox.
type dyingIO struct {
	batchIO
	sh *shard
}

func (d dyingIO) readBatch(ms []ioMsg, park bool) (int, error) {
	for i := 0; i < 8; i++ {
		d.sh.forwardFrame(0, netip.MustParseAddrPort("127.0.0.1:1"), []byte{byte(i)})
	}
	return 0, net.ErrClosed
}

// TestLoopExitEmptiesInbox pins the loop's last act: frames still
// queued in the hand-off inbox when the socket dies go back to the pool
// instead of leaking with the shard, and the read error that was not a
// shutdown fails the endpoint.
func TestLoopExitEmptiesInbox(t *testing.T) {
	sh := manualShard(t)
	sh.inbox = make(chan ioMsg, handoffCap)
	sh.bio = dyingIO{sh.bio, sh}
	sh.loop() // returns: the read fails
	if fwd, left := sh.crossFwd.Load(), len(sh.inbox); fwd != 8 || left != 0 {
		t.Errorf("%d frames forwarded, %d left in the inbox after the loop exited", fwd, left)
	}
	if sh.ep.Err() == nil {
		t.Error("a dead socket outside shutdown did not fail the endpoint")
	}
}

// TestLoopWakeBeforeReadEndsPark holds the lost-wake edge on the
// socket itself, on whatever rung -datapath selects: a kick that lands
// after arm has armed the park but before the loop's read reaches the
// socket must end that read at once. readBatch arms no deadline of its
// own on a parked read, so nothing the read does can overwrite the
// wake.
func TestLoopWakeBeforeReadEndsPark(t *testing.T) {
	sh := manualShard(t) // loop never started: the test plays it
	ms := []ioMsg{{buf: make([]byte, maxDatagram)}}
	for round := 0; round < 20; round++ {
		sh.mu.Lock()
		sh.bio.park(sh.now() + time.Hour)
		sh.kick()
		sh.mu.Unlock()
		got := make(chan error, 1)
		go func() {
			n, err := sh.bio.readBatch(ms, true)
			if err == nil && n != 0 {
				err = fmt.Errorf("%d datagrams from a socket nothing writes to", n)
			}
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("round %d: parked read after a wake = %v, want an empty batch", round, err)
			}
		case <-time.After(2 * time.Second):
			// The socket's close in cleanup ends the read left behind.
			t.Fatalf("round %d: a wake before the read did not end its park", round)
		}
	}
}

// clockIO is a batchIO on a manual clock with no socket behind it: time
// moves only when the test sets it, a parked read ends when the clock
// reaches the park deadline or a wake lands, an attempt finds nothing,
// and every datagram written is kept with the instant it left at.
type clockIO struct {
	mu     sync.Mutex
	cond   sync.Cond
	t      time.Duration // the clock
	until  time.Duration // the armed park deadline
	woken  bool          // a wake landed since park last armed
	parks  int           // parked reads begun
	parked bool          // a read is parked now
	closed bool
	sent   []clockSend
	reads  int // clock reads
}

type clockSend struct {
	at    time.Duration
	frame []byte
}

func newClockIO() *clockIO {
	f := &clockIO{until: math.MaxInt64}
	f.cond.L = &f.mu
	return f
}

func (f *clockIO) now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	return f.t
}

func (f *clockIO) park(until time.Duration) {
	f.mu.Lock()
	f.until, f.woken = until, false
	f.mu.Unlock()
}

func (f *clockIO) wake() {
	f.mu.Lock()
	f.woken = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

func (f *clockIO) readBatch(ms []ioMsg, park bool) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if park {
		f.parks++
		f.parked = true
		f.cond.Broadcast()
		for !f.closed && !f.woken && f.t < f.until {
			f.cond.Wait()
		}
		f.parked = false
	}
	if f.closed {
		return 0, net.ErrClosed
	}
	return 0, nil
}

func (f *clockIO) writeBatch(ms []ioMsg) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, clockSend{f.t, append([]byte(nil), ms[0].buf[:ms[0].n]...)})
	f.cond.Broadcast()
	return 1, nil
}

// set moves the clock to t and, with wake, ends the park as a kick
// would, whether or not t reached its deadline.
func (f *clockIO) set(t time.Duration, wake bool) {
	f.mu.Lock()
	f.t = t
	f.woken = f.woken || wake
	f.cond.Broadcast()
	f.mu.Unlock()
}

func (f *clockIO) close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// settled waits until at least sent datagrams have gone out and the
// loop has begun a parked read after the parks-th and sleeps in it, on a
// deadline still ahead, and returns the parked-read count. Only a test
// that hangs waits on the wall clock.
func (f *clockIO) settled(t *testing.T, parks, sent int) int {
	t.Helper()
	hung := false
	failsafe := time.AfterFunc(5*time.Second, func() {
		f.mu.Lock()
		hung = true
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer failsafe.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.sent) < sent || f.parks <= parks || !f.parked || f.woken || f.t >= f.until || f.until == math.MaxInt64 {
		if hung {
			t.Fatalf("loop never parked on a deadline ahead with %d datagrams sent (clock %v, deadline %v, %d parks, %d sent)",
				sent, f.t, f.until, f.parks, len(f.sent))
		}
		f.cond.Wait()
	}
	return f.parks
}

// TestLoopVirtualClockConnectBackoff drives a real shard loop on
// clockIO's manual clock. A Dial into a peer that never answers
// retransmits its Connect on the protocol's backoff schedule (200 ms
// doubling, ±25% jitter): each retransmission leaves in the one round
// the clock reaching its instant ends the park for, stamped with the
// virtual time, and not in a round that a wake forces just before it.
// Time reaches the loop only through its batchIO; nothing here sleeps.
func TestLoopVirtualClockConnectBackoff(t *testing.T) {
	sh := manualShard(t)
	f := newClockIO()
	sh.bio, sh.caps = f, &pathCaps{}
	sh.tx = newSendScheduler(f, sh.caps, txBatch, sh.ep.fail)
	looped := make(chan struct{})
	go func() { sh.loop(); close(looped) }()
	dialed := make(chan error, 1)
	go func() {
		_, err := sh.ep.Dial("127.0.0.1:9", core.QTPLight(), time.Hour)
		dialed <- err
	}()
	defer func() {
		sh.ep.Close()
		f.close()
		<-looped
		if err := <-dialed; err != ErrEndpointClosed {
			t.Errorf("Dial into a silent peer = %v after Close, want %v", err, ErrEndpointClosed)
		}
	}()

	// Dial sends the first Connect itself and kicks the loop onto its
	// retransmission deadline.
	parks := f.settled(t, 0, 1)
	for try := 1; try <= 4; try++ {
		f.mu.Lock()
		due, prev, sent := f.until, f.sent[len(f.sent)-1].at, len(f.sent)
		f.mu.Unlock()
		if base := min(200*time.Millisecond<<(try-1), 1600*time.Millisecond); due-prev < base*3/4 || due-prev >= base*5/4 {
			t.Fatalf("retransmission %d armed %v after the last Connect, want %v ±25%%", try, due-prev, base)
		}

		f.set(due-time.Nanosecond, true)
		rounds := f.settled(t, parks, sent) - parks
		parks += rounds
		f.mu.Lock()
		early, until := len(f.sent)-sent, f.until
		f.mu.Unlock()
		if rounds != 1 || early != 0 || until != due {
			t.Fatalf("retransmission %d: a wake 1 ns early ran %d rounds, sent %d frames and re-parked on %v; want 1, none and %v",
				try, rounds, early, until, due)
		}

		f.set(due, false)
		rounds = f.settled(t, parks, sent+1) - parks
		parks += rounds
		f.mu.Lock()
		out := f.sent[sent:]
		f.mu.Unlock()
		if rounds != 1 || len(out) != 1 {
			t.Fatalf("retransmission %d: the clock reaching its instant ran %d rounds and sent %d frames, want 1 and 1", try, rounds, len(out))
		}
		if typ, _, ok := classify(out[0].frame); !ok || typ != packet.TypeConnect || out[0].at != due {
			t.Fatalf("retransmission %d: sent type %v at %v, want a Connect at %v", try, typ, out[0].at, due)
		}
	}
}

// TestDeliverBatchReadsClockOnce pins the receive round's clock cost: a
// batch left the socket in one read, so deliverBatch reads the clock
// once for all its frames' arrival time (and servicing the connection
// reads what it reads once a round). Batches of 1, 8 and 64 data frames
// for one connection must read clockIO's clock equally often.
func TestDeliverBatchReadsClockOnce(t *testing.T) {
	sh := manualShard(t)
	f := newClockIO()
	sh.bio, sh.caps = f, &pathCaps{}
	sh.tx = newSendScheduler(f, sh.caps, txBatch, nil)
	snd := directSender(1400, 1)
	rcv := qtp.NewConn(qtp.Config{ConnID: 1})
	rcv.StartDirect(0, core.QTPAF(1e9).Normalize(), 0)
	c := trainConn(sh, 7300, rcv)
	sh.byID[c.localID] = c
	snd.Write(make([]byte, 256<<10))

	var sc rxScratch
	var sendAt time.Duration
	reads := map[int]int{}
	for _, n := range []int{1, 8, 64} {
		ms := make([]ioMsg, 0, n)
		for len(ms) < n {
			sendAt += time.Millisecond
			for len(ms) < n {
				frame, ok := snd.PollFrameAppend(sendAt, nil)
				if !ok {
					break
				}
				ms = append(ms, ioMsg{buf: frame, n: len(frame), addr: c.peer})
			}
		}
		before := f.reads
		if got := sh.deliverBatch(ms, &sc); got != n {
			t.Fatalf("a batch of %d data frames: %d accepted", n, got)
		}
		reads[n] = f.reads - before
		for p, ok := rcv.ReadStream(0); ok; p, ok = rcv.ReadStream(0) {
			bufpool.PutChunk(p)
		}
	}
	if reads[1] != reads[8] || reads[1] != reads[64] {
		t.Fatalf("clock reads per deliverBatch by frames in the batch: %v, want one count for all", reads)
	}
	t.Logf("clock reads per deliverBatch: %d", reads[1])
}
