package qtpnet

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/bufpool"
)

// fakeWriter records every writeBatch call and can be scripted to fail.
type fakeWriter struct {
	mu      sync.Mutex
	batches [][]ioMsg // deep-copied per call
	fail    error     // returned (with 0 sent) while set
}

func (w *fakeWriter) writeBatch(ms []ioMsg) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return 0, w.fail
	}
	cp := make([]ioMsg, len(ms))
	for i, m := range ms {
		cp[i] = ioMsg{buf: append([]byte(nil), m.buf[:m.n]...), n: m.n, addr: m.addr, segSize: m.segSize}
	}
	w.batches = append(w.batches, cp)
	return len(ms), nil
}

func (w *fakeWriter) snapshot() [][]ioMsg {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]ioMsg(nil), w.batches...)
}

func pooledFrame(tag byte, n int) []byte {
	b := bufpool.Get()
	for i := 0; i < n; i++ {
		b[i] = tag
	}
	return b[:n]
}

func testAddr(port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), port)
}

// TestSchedulerInterleaving checks that frames enqueued by different
// connections coalesce into shared batches with per-destination
// integrity and global FIFO order preserved.
func TestSchedulerInterleaving(t *testing.T) {
	w := &fakeWriter{}
	s := newSendScheduler(w, &pathCaps{}, 8, nil)
	defer s.stop()

	const conns, frames = 4, 6
	for f := 0; f < frames; f++ {
		for c := 0; c < conns; c++ {
			s.enqueue(testAddr(2000+uint16(c)), pooledFrame(byte(c), 8), 0)
		}
	}
	s.flushPending()
	batches := w.snapshot()

	var flat []ioMsg
	multi := 0
	for _, b := range batches {
		if len(b) > 1 {
			multi++
		}
		flat = append(flat, b...)
	}
	if len(flat) != conns*frames {
		t.Fatalf("flushed %d datagrams, want %d", len(flat), conns*frames)
	}
	if multi == 0 {
		t.Error("no batch carried more than one datagram; no cross-connection coalescing happened")
	}
	// Every datagram must carry the payload tag matching its
	// destination, and per-destination arrival order is FIFO by
	// construction of the queue; verify the tag/destination pairing.
	seen := make(map[uint16]int)
	for i, m := range flat {
		wantTag := byte(m.addr.Port() - 2000)
		if m.buf[0] != wantTag {
			t.Fatalf("datagram %d for %v carries tag %d, want %d (cross-connection payload mixup)",
				i, m.addr, m.buf[0], wantTag)
		}
		seen[m.addr.Port()]++
	}
	for c := 0; c < conns; c++ {
		if n := seen[2000+uint16(c)]; n != frames {
			t.Errorf("destination %d received %d frames, want %d", c, n, frames)
		}
	}
}

// TestSchedulerEdgeFlush exercises the one flush discipline: enqueue +
// explicit flushPending moves everything, in maxBatch-sized syscalls.
func TestSchedulerEdgeFlush(t *testing.T) {
	w := &fakeWriter{}
	s := newSendScheduler(w, &pathCaps{}, 4, nil)
	defer s.stop()

	for i := 0; i < 10; i++ {
		s.enqueue(testAddr(3000), pooledFrame(1, 4), 0)
	}
	s.flushPending()
	batches := w.snapshot()
	total := 0
	for _, b := range batches {
		total += len(b)
		if len(b) > 4 {
			t.Fatalf("batch of %d exceeds maxBatch 4", len(b))
		}
	}
	if total != 10 {
		t.Fatalf("flushed %d datagrams, want 10", total)
	}
}

// TestSchedulerFatalError checks that a persistent socket error stops
// the scheduler through onFatal exactly once, and that transient errors
// do not.
func TestSchedulerFatalError(t *testing.T) {
	fatalCh := make(chan error, 4)
	w := &fakeWriter{fail: net.ErrClosed}
	s := newSendScheduler(w, &pathCaps{}, 4, func(err error) { fatalCh <- err })
	defer s.stop()

	s.enqueue(testAddr(4000), pooledFrame(1, 4), 0)
	s.flushPending()
	select {
	case err := <-fatalCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("onFatal got %v, want net.ErrClosed", err)
		}
	default:
		t.Fatal("persistent error did not reach onFatal")
	}
	if s.drops.Load() == 0 {
		t.Error("fatally failed datagram not counted as dropped")
	}

	// Transient errors: counted, skipped, never fatal.
	w2 := &fakeWriter{fail: errors.New("transient")}
	fatal2 := make(chan error, 4)
	s2 := newSendScheduler(w2, &pathCaps{}, 4, func(err error) { fatal2 <- err })
	defer s2.stop()
	s2.enqueue(testAddr(4001), pooledFrame(1, 4), 0)
	s2.flushPending()
	select {
	case err := <-fatal2:
		t.Fatalf("transient error escalated to fatal: %v", err)
	default:
	}
	if s2.errTransient.Load() != 1 {
		t.Errorf("transient error count = %d, want 1", s2.errTransient.Load())
	}
	// The writer recovers; later frames still flow.
	w2.mu.Lock()
	w2.fail = nil
	w2.mu.Unlock()
	s2.enqueue(testAddr(4001), pooledFrame(2, 4), 0)
	s2.flushPending()
	if got := w2.snapshot(); len(got) == 0 {
		t.Fatal("scheduler wedged after a transient error")
	}
}

// TestSchedulerStopReleasesQueue checks shutdown returns queued buffers
// without writing them.
func TestSchedulerStopReleasesQueue(t *testing.T) {
	w := &fakeWriter{}
	s := newSendScheduler(w, &pathCaps{}, 64, nil)
	for i := 0; i < 5; i++ {
		s.enqueue(testAddr(5000), pooledFrame(1, 4), 0)
	}
	s.stop()
	if bs := w.snapshot(); len(bs) != 0 {
		t.Fatalf("stop flushed %d batches, want none", len(bs))
	}
	// Enqueue after stop is a no-op that releases the buffer.
	s.enqueue(testAddr(5000), pooledFrame(1, 4), 0)
	if got := s.pending(); got != 0 {
		t.Fatalf("%d frames queued after stop", got)
	}
}
