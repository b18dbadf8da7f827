package qtpnet

import (
	"time"

	"repro/internal/bufpool"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// Stream delivery modes, re-exported so applications using qtpnet need
// not import the wire-format package.
type StreamMode = packet.StreamMode

// Delivery modes for OpenStream.
const (
	StreamReliableOrdered   = packet.StreamReliableOrdered
	StreamReliableUnordered = packet.StreamReliableUnordered
	StreamExpiring          = packet.StreamExpiring
)

// Stream is one application stream multiplexed on a Conn that
// negotiated the streams capability (core.Profile.MaxStreams >= 2).
// The initiating side opens streams with Conn.OpenStream and writes;
// the responding side learns of them through Conn.AcceptStream and
// reads. Stream 0 is implicit on every connection and is what the
// Conn's own Write/Read/CloseSend address, so code that never opens a
// stream works the same with or without the capability.
type Stream struct {
	c    *Conn
	id   uint64
	mode StreamMode

	// Delivered chunks wait in one place only, the stream's ready queue
	// inside the state machine; this is just where a Read parks while it
	// is empty. readable carries at most one token, sent by service when
	// the queue goes empty → non-empty under a parked Read, so a reader
	// that keeps up costs no channel operation per chunk.
	readable chan struct{}
	parked   bool // listed in c.parked; guarded by c.mu
}

func newNetStream(c *Conn, id uint64, mode StreamMode) *Stream {
	return &Stream{c: c, id: id, mode: mode, readable: make(chan struct{}, 1)}
}

// ID returns the stream's identifier on its connection.
func (s *Stream) ID() uint64 { return s.id }

// Mode returns the stream's delivery mode.
func (s *Stream) Mode() StreamMode { return s.mode }

// Conn returns the connection the stream rides on.
func (s *Stream) Conn() *Conn { return s.c }

// Write queues application data on the stream, blocking while the
// transport applies backpressure (the backlog budget is shared across
// the connection's streams). It returns early if the connection dies.
func (s *Stream) Write(p []byte) (int, error) { return s.c.writeStream(s.id, p) }

// CloseSend signals the end of the stream; its FIN is delivered with
// the stream's own reliability. The connection tears down once every
// stream is closed and resolved.
func (s *Stream) CloseSend() { s.c.closeSendStream(s.id) }

// Read returns the stream's next delivered chunk — in order on
// reliable-ordered and expiring streams (an expiring stream skips what
// passed its deadline), in arrival order on unordered streams —
// blocking until data arrives, the connection dies (nil, false), or the
// timeout passes. On an ordered or expiring stream a chunk is a run of
// in-order bytes of at most 64 KiB (one segment while the reader keeps
// up, several when it falls behind; never across a skipped hole); on an
// unordered stream it is one segment. Chunks are pool-backed: hand them
// back with Release once consumed.
func (s *Stream) Read(timeout time.Duration) ([]byte, bool) {
	return s.c.readFrom(s, timeout)
}

// Release returns a chunk obtained from Read to the delivery pool.
func (s *Stream) Release(p []byte) { bufpool.PutChunk(p) }

// Stats snapshots the stream's counters.
func (s *Stream) Stats() qtp.StreamStats {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	st, _ := s.c.inner.StreamStats(s.id)
	return st
}

// Done returns a channel closed when the underlying connection is torn
// down.
func (s *Stream) Done() <-chan struct{} { return s.c.closedCh }

// OpenStream creates a new outbound stream with the given delivery mode
// (initiator side; requires the negotiated streams capability).
// deadline is the retransmission bound for StreamExpiring, ignored
// otherwise. Streams share the connection's sending turns equally.
func (c *Conn) OpenStream(mode StreamMode, deadline time.Duration) (*Stream, error) {
	// A 0-RTT resume returns from Dial mid-handshake: wait for the Accept.
	select {
	case <-c.established:
	case <-c.closedCh:
		return nil, errConnClosed
	}
	c.mu.Lock()
	id, err := c.inner.OpenStream(mode, deadline)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return newNetStream(c, id, mode), nil
}

// AcceptStream blocks until the peer's first frame announces a new
// stream, the timeout passes (nil, false), or the connection dies.
func (c *Conn) AcceptStream(timeout time.Duration) (*Stream, bool) {
	select {
	case s := <-c.acceptStreams:
		return s, true
	default:
	}
	t := acquireTimer(timeout)
	defer releaseTimer(t)
	select {
	case s := <-c.acceptStreams:
		return s, true
	case <-c.closedCh:
		return nil, false
	case <-t.C:
		return nil, false
	}
}

// MultiStream reports whether the connection negotiated the streams
// capability.
func (c *Conn) MultiStream() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.MultiStream()
}

// StreamStats snapshots one stream's counters by ID (0 is the implicit
// default stream).
func (c *Conn) StreamStats(id uint64) (qtp.StreamStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.StreamStats(id)
}
