package qtpnet

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/bufpool"
)

const (
	// txBatch is the most datagrams one writeBatch call (one sendmmsg
	// syscall) flushes.
	txBatch = 32
	// maxConsecSendErrs converts a run of transient send errors into a
	// persistent one: a socket that fails this many datagrams in a row
	// is dead for every connection sharing it.
	maxConsecSendErrs = 64
)

// sendScheduler is the shared transmit path of an endpoint: connections
// never write to the socket from their timer/ack paths; they enqueue
// framed packets (destination + pooled buffer) on a batch queue that is
// flushed through writeBatch, batching frames from different
// connections into single syscalls.
//
// Flushing is edge-triggered, not lingering: a shard's round enqueues
// frames for every connection a received frame or a due deadline
// touched, then calls flushPending once at the end of the round, so all
// frames the round produced share syscalls without any added latency.
// (A deliberate linger delay was measured to slow TFRC's rate ramp —
// ~30% loopback throughput at 100µs — so there is no linger timer.)
//
// Whoever calls flushPending and wins the flush token drains the queue;
// losers just leave their frames for the winner, so a flush in progress
// is itself the batching window for late arrivals.
type sendScheduler struct {
	w        batchWriter
	maxBatch int
	// onFatal is called once, off the enqueue path, when the socket is
	// persistently unwritable; the endpoint uses it to surface the
	// error and tear down.
	onFatal func(error)

	mu     sync.Mutex
	q      []ioMsg
	closed bool

	// caps is what the writer's socket probed in at bind: whether a
	// train leaves as one UDP_SEGMENT super-datagram (gsoMaxSegs > 0) and
	// whether every datagram is a syscall of its own (!batch).
	caps *pathCaps

	flushing  atomic.Bool
	batch     []ioMsg // flush scratch, guarded by the flushing token
	consecErr int     // likewise

	fatalOnce sync.Once

	// Counters, merged into EndpointStats. datagramsOut counts wire
	// datagrams: a segment train adds one per segment, not one per
	// writeBatch message, so AvgSendBatch stays comparable across the
	// plain, mmsg and GSO paths.
	datagramsOut atomic.Uint64
	batches      atomic.Uint64
	maxSeen      atomic.Uint64
	errTransient atomic.Uint64
	drops        atomic.Uint64
	gsoTrains    atomic.Uint64 // trains sent as one UDP_SEGMENT super-datagram
	gsoSegs      atomic.Uint64 // frames that traveled inside those trains
}

func newSendScheduler(w batchWriter, caps *pathCaps, maxBatch int, onFatal func(error)) *sendScheduler {
	return &sendScheduler{
		w:        w,
		caps:     caps,
		maxBatch: maxBatch,
		onFatal:  onFatal,
		batch:    make([]ioMsg, 0, maxBatch),
	}
}

// enqueue hands one datagram, or one segment train, to the scheduler.
// buf holds the bytes; segSize > 0 with len(buf) > segSize marks a
// train of segSize-byte frames, the last possibly shorter (pollSeal
// builds them). buf should be pool-backed (a bufpool buffer or chunk);
// ownership transfers to the scheduler, which releases it after the
// flush (see release). enqueue never touches the socket, so it is safe
// under a connection's lock; the caller promises a
// flushIfFull/flushPending once its current frame-production pass is
// done.
func (s *sendScheduler) enqueue(addr netip.AddrPort, buf []byte, segSize int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		release(buf)
		return
	}
	s.q = append(s.q, ioMsg{buf: buf, n: len(buf), addr: addr, segSize: segSize})
	s.mu.Unlock()
}

// flushIfFull flushes only when at least one full batch is queued; the
// endpoint calls it between connections mid-round to bound queue growth
// without paying a flush probe per service pass.
func (s *sendScheduler) flushIfFull() {
	if s.pending() >= s.maxBatch {
		s.flushPending()
	}
}

// flushPending drains the queue through the writer. Concurrent callers
// race for the flush token; exactly one drains while the others return
// immediately, their frames covered by the winner's drain loop.
func (s *sendScheduler) flushPending() {
	for {
		if !s.flushing.CompareAndSwap(false, true) {
			return
		}
		for {
			s.batch = s.take(s.batch[:0])
			if len(s.batch) == 0 {
				break
			}
			s.flush(s.batch)
		}
		s.flushing.Store(false)
		// A frame enqueued between the last take and the token release
		// would strand if its enqueuer lost the race to us; recheck.
		if s.pending() == 0 {
			return
		}
	}
}

// stop shuts the scheduler down; pending frames are released unsent.
func (s *sendScheduler) stop() {
	s.mu.Lock()
	s.closed = true
	q := s.q
	s.q = nil
	s.mu.Unlock()
	for i := range q {
		release(q[i].buf)
		q[i] = ioMsg{}
	}
}

func (s *sendScheduler) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q)
}

// take moves up to maxBatch queued messages into dst.
func (s *sendScheduler) take(dst []ioMsg) []ioMsg {
	s.mu.Lock()
	n := len(s.q)
	if n > s.maxBatch {
		n = s.maxBatch
	}
	dst = append(dst, s.q[:n]...)
	rem := copy(s.q, s.q[n:])
	for i := rem; i < len(s.q); i++ {
		s.q[i] = ioMsg{} // drop buffer references from the tail
	}
	s.q = s.q[:rem]
	s.mu.Unlock()
	return dst
}

// flush pushes one batch through the writer, skipping datagrams that
// fail transiently and escalating persistent failure via onFatal.
func (s *sendScheduler) flush(batch []ioMsg) {
	defer func() {
		for i := range batch {
			release(batch[i].buf)
			batch[i] = ioMsg{}
		}
	}()
	sent := 0
	for sent < len(batch) {
		n, err := s.w.writeBatch(batch[sent:])
		// Read after the write: a writer whose kernel refused a train
		// has cleared it and re-sent that train segment by segment.
		gso := s.caps.gsoMaxSegs.Load() > 0
		var wire uint64
		for i := sent; i < sent+n; i++ {
			c := wireCount(batch[i])
			wire += c
			if gso && c > 1 {
				s.gsoTrains.Add(1)
				s.gsoSegs.Add(c)
			}
		}
		calls, perCall := uint64(1), wire
		if !s.caps.batch {
			calls, perCall = max(wire, 1), min(wire, 1) // one syscall a datagram
		}
		s.batches.Add(calls)
		s.datagramsOut.Add(wire)
		if perCall > s.maxSeen.Load() {
			s.maxSeen.Store(perCall)
		}
		sent += n
		if err == nil {
			if n > 0 {
				s.consecErr = 0
				continue
			}
			// A writer that sends nothing and reports nothing would
			// spin; treat it as a dropped head.
			err = errors.New("qtpnet: writeBatch made no progress")
		}
		if n > 0 {
			s.consecErr = 0
		}
		s.consecErr++
		if isFatalSendErr(err) || s.consecErr >= maxConsecSendErrs {
			var dropped uint64
			for i := sent; i < len(batch); i++ {
				dropped += wireCount(batch[i])
			}
			s.drops.Add(dropped)
			s.fatal(err)
			return
		}
		// Transient: count it, drop the datagram (or whole train) at
		// the failure point, and keep the rest of the batch moving.
		s.errTransient.Add(1)
		if sent < len(batch) {
			s.drops.Add(wireCount(batch[sent]))
			sent++
		}
	}
}

// release returns a sent (or discarded) datagram's buffer to the pool
// of its size class: trains are full-size buffers, lone frames and
// Retries 2 KiB chunks. Anything else is left to the collector.
func release(b []byte) {
	switch cap(b) {
	case bufpool.ChunkSize:
		bufpool.PutChunk(b)
	case bufpool.Size:
		bufpool.Put(b)
	}
}

// fatal reports a persistent socket failure exactly once.
func (s *sendScheduler) fatal(err error) {
	s.fatalOnce.Do(func() {
		if s.onFatal != nil {
			s.onFatal(err)
		}
	})
}

// isFatalSendErr reports whether a send error condemns the socket (as
// opposed to one destination or one moment).
func isFatalSendErr(err error) bool {
	return errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.EBADF) ||
		errors.Is(err, syscall.ENOTSOCK)
}
