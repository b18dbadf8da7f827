package qtpnet

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// Conn is one QTP connection multiplexed onto one of an Endpoint's UDP
// sockets. Its Write/Read/Close methods are safe for concurrent use
// with its shard's loop.
type Conn struct {
	sh   *shard // the socket that minted localID; a conn never migrates
	peer netip.AddrPort

	// localID keys the shard's demux table: the peer stamps it on
	// every post-handshake frame it sends us. remoteID is the peer-side
	// ID recorded for handshake-route cleanup.
	localID  uint32
	remoteID uint32

	// mu guards the sans-IO state machine.
	mu    sync.Mutex
	inner *qtp.Conn

	// Stream multiplexing: s0 is stream 0, implicit on every connection
	// and what Conn.Read reads; acceptStreams queues peer-announced
	// streams for AcceptStream; parked lists the streams whose Read found
	// nothing and waits for service's token, guarded by mu.
	s0            *Stream
	parked        []*Stream
	acceptStreams chan *Stream

	established chan struct{}
	estOnce     sync.Once
	closedCh    chan struct{}
	closeOnce   sync.Once

	// owner, when non-nil, is the endpoint the package-level Dial
	// created for this one connection; it dies with it — after the
	// close grace, if one was armed.
	owner *Endpoint

	// initiator marks the dialing (sending) side; responders are the
	// receivers. Drives the close-grace policy in retireConn.
	initiator bool

	// reaped closes when the connection has fully left the demux
	// (immediately on teardown, or at the end of a close grace).
	reaped chan struct{}

	// lingering marks a connection in its post-close grace period: the
	// application side is closed but the demux entry stays routable so
	// the protocol close can complete (see shard.retireConn).
	lingering atomic.Bool

	// Anti-amplification state. validated is true once the peer's
	// address is proven reachable (initiators always; responders on a
	// valid source-address token, or on the first frame routed by our
	// local CID — which the peer can only have learned from our Accept).
	// Until then ampRx counts bytes received from the peer and ampTx
	// bytes sent to it; service withholds frames that would push ampTx
	// past 3x ampRx, so a spoofed victim never receives more than 3x
	// what the attacker spent.
	validated atomic.Bool
	ampRx     atomic.Int64
	ampTx     atomic.Int64

	// Scheduler state, guarded by sh.mu.
	wakeAt     time.Duration
	heapIdx    int
	gone       bool
	graceUntil time.Duration // linger hard deadline
}

func newConn(sh *shard, peer netip.AddrPort, id uint32) *Conn {
	c := &Conn{
		sh:            sh,
		peer:          peer,
		localID:       id,
		remoteID:      id,
		acceptStreams: make(chan *Stream, packet.MaxStreams),
		established:   make(chan struct{}),
		closedCh:      make(chan struct{}),
		reaped:        make(chan struct{}),
		heapIdx:       -1,
	}
	c.s0 = newNetStream(c, 0, StreamReliableOrdered)
	return c
}

// ID returns the connection's endpoint-local identifier: the value the
// peer stamps in the header of every frame it sends us.
func (c *Conn) ID() uint32 { return c.localID }

// RemoteID returns the identifier stamped on outbound frames — the
// peer's local ID once its handshake TLV has been seen.
func (c *Conn) RemoteID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.RemoteID()
}

// Profile returns the (negotiated) composition.
func (c *Conn) Profile() core.Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Profile()
}

// Stats snapshots the endpoint counters.
func (c *Conn) Stats() qtp.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Stats()
}

// writeStream is the shared backpressure loop behind Conn.Write and
// Stream.Write: queue onto the given stream, flush, poll while the
// transport pushes back, bail if the connection dies.
func (c *Conn) writeStream(id uint64, p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		c.mu.Lock()
		n := c.inner.WriteStream(id, p)
		c.mu.Unlock()
		total += n
		p = p[n:]
		if n > 0 {
			c.sh.serviceFlush(c)
		}
		if len(p) == 0 {
			break
		}
		t := acquireTimer(5 * time.Millisecond)
		select {
		case <-c.closedCh:
			releaseTimer(t)
			return total, errConnClosed
		case <-t.C:
			releaseTimer(t)
		}
	}
	return total, nil
}

// closeSendStream is the shared end-of-stream signal behind
// Conn.CloseSend and Stream.CloseSend.
func (c *Conn) closeSendStream(id uint64) {
	c.mu.Lock()
	c.inner.CloseStream(id)
	c.mu.Unlock()
	c.sh.serviceFlush(c)
}

// pop takes the stream's next chunk from the state machine, or lists
// the stream as parked: its reader is about to wait for a token.
func (c *Conn) pop(s *Stream) ([]byte, bool) {
	c.mu.Lock()
	p, ok := c.inner.ReadStream(s.id)
	if !ok && !s.parked {
		s.parked = true
		c.parked = append(c.parked, s)
	}
	c.mu.Unlock()
	return p, ok
}

// wakeReaders hands every parked reader whose stream now has something
// to read its token. Callers hold c.mu.
func (c *Conn) wakeReaders() {
	still := c.parked[:0]
	for _, s := range c.parked {
		if st, _ := c.inner.StreamStats(s.id); st.UnreadBytes == 0 {
			still = append(still, s)
			continue
		}
		s.parked = false
		select {
		case s.readable <- struct{}{}:
		default:
		}
	}
	c.parked = still
}

// readFrom is the delivery wait behind Conn.Read and Stream.Read: block
// until the stream has a chunk, the connection dies (draining anything
// already delivered first), or the timeout passes.
func (c *Conn) readFrom(s *Stream, timeout time.Duration) ([]byte, bool) {
	// Fast path: in steady-state delivery a chunk is already queued, so
	// the wait machinery (and its timer allocation) never runs.
	if p, ok := c.pop(s); ok {
		return p, true
	}
	t := acquireTimer(timeout)
	defer releaseTimer(t)
	for {
		select {
		case <-s.readable:
			// A token can be stale (the fast path beat it to the chunk):
			// re-park on a miss.
			if p, ok := c.pop(s); ok {
				return p, true
			}
		case <-c.closedCh:
			return c.pop(s)
		case <-t.C:
			return nil, false
		}
	}
}

// timerPool recycles the wait timers behind Conn.Read/Stream.Read and
// the write-backpressure poll: an application draining a hot connection
// parks briefly between delivery batches (and a writer ahead of the
// transport parks every 5 ms), and a fresh timer per park was the single
// largest allocation site on the delivery path.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	t, _ := timerPool.Get().(*time.Timer)
	if t == nil {
		return time.NewTimer(d)
	}
	t.Reset(d)
	return t
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		// Pre-1.23 timer semantics (go.mod pins the old behavior): a
		// fired timer leaves its tick buffered; drain it so the next
		// Reset does not surface a stale expiry. If Stop races the fire
		// instant the tick can still land after this drain — the next
		// user then sees one early timeout, which every readFrom caller
		// treats as "no data yet" and re-polls.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Write queues application data, blocking while the transport applies
// backpressure. It returns early if the connection dies.
func (c *Conn) Write(p []byte) (int, error) { return c.writeStream(0, p) }

// CloseSend signals end of stream; the FIN is delivered reliably under
// full reliability.
func (c *Conn) CloseSend() { c.closeSendStream(0) }

// Read returns the next in-order chunk, blocking until data arrives,
// the connection dies (nil, false), or the timeout passes. A chunk is a
// run of in-order bytes of at most 64 KiB: one segment when the reader
// keeps up, every segment that arrived in order since the last Read
// (up to the 64 KiB) when it falls behind. The chunk is pool-backed:
// hand it back with Release once consumed so steady-state delivery
// allocates nothing (skipping Release costs a pool miss, never a leak).
func (c *Conn) Read(timeout time.Duration) ([]byte, bool) {
	return c.readFrom(c.s0, timeout)
}

// Release returns a chunk obtained from Read to the delivery pool of
// its size class. Safe on any slice (non-pooled capacities are dropped)
// and on nil.
func (c *Conn) Release(p []byte) { bufpool.PutChunk(p) }

// Done returns a channel that is closed once the connection has been
// torn down (locally or by protocol teardown). Data already delivered
// may still be drained with Read.
func (c *Conn) Done() <-chan struct{} { return c.closedCh }

// Finished reports whether every receive stream completed through FIN
// and its last chunk has been read, so the idiomatic receive loop — for
// !Finished() { Read } — never exits with data still queued.
func (c *Conn) Finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Finished()
}

// Close removes the connection from its endpoint. If the protocol
// exchange is still in flight — the common case when a receiver closes
// the moment Finished() reports true — the demux entry lingers briefly
// so the final ack round and close handshake complete instead of
// stranding the peer in no-route retransmissions; the application-side
// channels close immediately either way. A connection created by the
// package-level Dial also releases its implicit endpoint.
func (c *Conn) Close() error {
	c.sh.retireConn(c)
	if c.owner != nil {
		if c.lingering.Load() {
			// The implicit endpoint must outlive the grace entry, or
			// closing it would kill the very exchange the grace exists
			// to finish. Reap it once the connection has fully left the
			// demux (protocol close done, or grace expired).
			go func() {
				<-c.reaped
				c.owner.Close()
			}()
		} else {
			c.owner.Close()
		}
	}
	return nil
}

// teardown unlinks the connection immediately; idempotent.
func (c *Conn) teardown() {
	c.closeOnce.Do(func() { close(c.closedCh) })
	c.sh.removeConn(c)
}
