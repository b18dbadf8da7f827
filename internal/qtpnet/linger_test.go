package qtpnet

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestReceiverCloseGrace is the regression test for the receiver-side
// close gotcha: an application that closes its connection the moment
// Finished() reports true used to unroute the demux entry before the
// stream tail's final ack and the sender's Close landed, stranding the
// sender in NoRoute retransmissions until its retries gave up (many
// seconds). With the TIME_WAIT-style grace entry, the closed
// connection keeps answering the protocol, the sender's close handshake
// completes promptly, and nothing ever hits NoRoute.
func TestReceiverCloseGrace(t *testing.T) {
	const perConn = 32 << 10

	l, err := Listen("127.0.0.1:0", core.Permissive(2e6))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	srvRead := make(chan int, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			srvRead <- -1
			return
		}
		n := 0
		deadline := time.Now().Add(20 * time.Second)
		for !conn.Finished() && time.Now().Before(deadline) {
			chunk, ok := conn.Read(time.Second)
			if !ok {
				continue
			}
			n += len(chunk)
			conn.Release(chunk)
		}
		for { // drain chunks queued behind the FIN
			chunk, ok := conn.Read(10 * time.Millisecond)
			if !ok {
				break
			}
			n += len(chunk)
			conn.Release(chunk)
		}
		// The gotcha: close immediately on Finished, no Done() linger.
		conn.Close()
		srvRead <- n
	}()

	conn, err := client.Dial(l.Addr().String(), core.QTPLight(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, perConn)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	conn.CloseSend()

	// The sender's close handshake must complete quickly: the receiver's
	// grace entry acks the tail and answers Close. Without the grace the
	// sender spins on no-route retransmissions instead.
	start := time.Now()
	select {
	case <-conn.Done():
	case <-time.After(4 * time.Second):
		t.Fatalf("sender still not closed %v after CloseSend: receiver close stranded the tail", time.Since(start))
	}
	if n := <-srvRead; n != perConn {
		t.Fatalf("server read %d bytes, want %d", n, perConn)
	}
	if st := l.Stats(); st.NoRoute != 0 {
		t.Errorf("receiver close left %d frames unrouted; grace entry missing", st.NoRoute)
	}
	// The grace entry is transient: once the protocol close completes
	// the demux entry goes too (well before the grace deadline).
	deadline := time.Now().Add(2 * time.Second)
	for l.ConnCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := l.ConnCount(); n != 0 {
		t.Errorf("server still carries %d conns after close handshake", n)
	}
	conn.Close()
}

// TestFailedDialNoGrace pins the other side of the close-grace policy:
// a handshake that never completed has no exchange worth protecting, so
// a failed Dial must not leave a lingering demux entry retrying
// Connect frames for the grace period.
func TestFailedDialNoGrace(t *testing.T) {
	e, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Nothing listens here; the handshake can only time out.
	if _, err := e.Dial("127.0.0.1:9", core.QTPLight(), 200*time.Millisecond); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if n := e.ConnCount(); n != 0 {
		t.Fatalf("failed dial left %d lingering conn(s) in the demux", n)
	}
}
