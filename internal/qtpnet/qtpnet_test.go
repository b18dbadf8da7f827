package qtpnet

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// TestLoopbackTransfer runs a real UDP transfer on loopback: handshake,
// negotiation, reliable delivery, teardown — the same state machines the
// simulator tests, now over actual sockets and wall-clock timers.
func TestLoopbackTransfer(t *testing.T) {
	l, err := Listen("127.0.0.1:0", core.Permissive(1e6))
	if err != nil {
		t.Fatal(err)
	}

	const total = 200 << 10
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(i * 7)
	}

	type result struct {
		buf      bytes.Buffer
		profile  core.Profile
		finished bool
		err      error
	}
	done := make(chan *result, 1)
	go func() {
		r := &result{}
		defer func() { done <- r }()
		conn, err := l.Accept()
		if err != nil {
			r.err = err
			return
		}
		defer conn.Close()
		r.profile = conn.Profile()
		deadline := time.After(30 * time.Second)
		for !conn.Finished() {
			select {
			case <-deadline:
				return
			default:
			}
			chunk, ok := conn.Read(time.Second)
			if ok {
				r.buf.Write(chunk)
				conn.Release(chunk)
			}
		}
		// Drain whatever is still queued.
		for {
			chunk, ok := conn.Read(50 * time.Millisecond)
			if !ok {
				break
			}
			r.buf.Write(chunk)
			conn.Release(chunk)
		}
		r.finished = true
	}()

	conn, err := Dial(l.Addr().String(), core.QTPAF(500_000), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if got := conn.Profile().TargetRate; got != 500_000 {
		t.Fatalf("negotiated g = %v, want 500000", got)
	}
	if conn.Profile().Reliability != packet.ReliabilityFull {
		t.Fatalf("negotiated reliability %v", conn.Profile().Reliability)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	conn.CloseSend()

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.finished {
		t.Fatalf("receiver did not finish (got %d of %d bytes)", r.buf.Len(), total)
	}
	if !bytes.Equal(r.buf.Bytes(), data) {
		t.Fatalf("data corrupted: got %d bytes, want %d", r.buf.Len(), total)
	}

	// Write backpressure: a writer ahead of the transport polls every
	// 5 ms until room appears or the connection dies. A connection that
	// never started cannot drain its backlog, so Write parks for as long
	// as we let it — and must reuse one pooled timer while it does, not
	// leave a live time.After (three allocations) behind per poll. A
	// write past the 1 MiB backlog cap fills it.
	blocked := newConn(conn.sh, conn.peer, 0)
	blocked.inner = qtp.NewConn(qtp.Config{Initiator: true, Profile: core.QTPLight()})
	if n := blocked.inner.WriteStream(0, make([]byte, 2<<20)); n == 0 || n == 2<<20 {
		t.Fatalf("a 2 MiB write took %d bytes: the backlog cap did not bite", n)
	}
	time.AfterFunc(200*time.Millisecond, func() { close(blocked.closedCh) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n, err := blocked.Write([]byte{1})
	polls := uint64(time.Since(start) / (5 * time.Millisecond))
	runtime.ReadMemStats(&after)
	if n != 0 || err == nil {
		t.Fatalf("Write on a full backlog = %d, %v; want 0 and the close error", n, err)
	}
	// A handful in a normal build; the race detector's sync.Pool drops
	// a quarter of what is put back, which still stays under one
	// allocation per poll.
	if allocs := after.Mallocs - before.Mallocs; allocs > polls*3/2 {
		t.Errorf("blocked Write allocated %d objects over at most %d polls; the poll timer is not being reused", allocs, polls)
	}
}

func TestDialTimeout(t *testing.T) {
	// Nothing listening on this port: Dial must time out, not hang.
	_, err := Dial("127.0.0.1:1", core.QTPLight(), 300*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
}
