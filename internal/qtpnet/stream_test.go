package qtpnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// multiStreamProfile is a reliable multi-stream composition for
// loopback tests.
func multiStreamProfile() core.Profile {
	return core.Profile{
		Reliability: packet.ReliabilityFull,
		Feedback:    packet.FeedbackReceiverLoss,
		TargetRate:  8e6,
		MSS:         1200,
		MaxStreams:  8,
	}
}

// TestStreamsOverUDP runs three streams with three delivery modes over
// one loopback connection end to end: open, accept, transfer, FIN,
// per-stream stats.
func TestStreamsOverUDP(t *testing.T) {
	l, err := Listen("127.0.0.1:0", core.Permissive(1e7))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		id   uint64
		mode StreamMode
		data []byte
	}
	results := make(chan result, 8)
	readerDone := make(chan struct{}, 4)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !conn.MultiStream() {
			t.Error("server connection did not negotiate streams")
			conn.Close()
			return
		}
		// Stream 0 rides the legacy Read path.
		go func() {
			defer func() { readerDone <- struct{}{} }()
			var buf bytes.Buffer
			for buf.Len() < 64<<10 {
				chunk, ok := conn.Read(5 * time.Second)
				if !ok {
					break
				}
				buf.Write(chunk)
				conn.Release(chunk)
			}
			results <- result{0, StreamReliableOrdered, buf.Bytes()}
		}()
		for i := 0; i < 2; i++ {
			s, ok := conn.AcceptStream(5 * time.Second)
			if !ok {
				t.Error("AcceptStream timed out")
				break
			}
			go func() {
				defer func() { readerDone <- struct{}{} }()
				var buf bytes.Buffer
				for buf.Len() < 32<<10 {
					chunk, ok := s.Read(5 * time.Second)
					if !ok {
						break
					}
					buf.Write(chunk)
					s.Release(chunk)
				}
				results <- result{s.ID(), s.Mode(), buf.Bytes()}
			}()
		}
		// Close only after every stream reader drained its stream.
		for i := 0; i < 3; i++ {
			<-readerDone
		}
		<-conn.Done()
		conn.Close()
	}()

	conn, err := Dial(l.Addr().String(), multiStreamProfile(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !conn.MultiStream() {
		t.Fatal("client connection did not negotiate streams")
	}

	unord, err := conn.OpenStream(StreamReliableUnordered, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := conn.OpenStream(StreamExpiring, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i%31)
		}
		return b
	}
	d0, d1, d2 := mk(64<<10, 1), mk(32<<10, 2), mk(32<<10, 3)
	if _, err := conn.Write(d0); err != nil {
		t.Fatal(err)
	}
	if _, err := unord.Write(d1); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Write(d2); err != nil {
		t.Fatal(err)
	}
	conn.CloseSend()
	unord.CloseSend()
	exp.CloseSend()

	want := map[uint64][]byte{0: d0, unord.ID(): d1, exp.ID(): d2}
	wantMode := map[uint64]StreamMode{
		0: StreamReliableOrdered, unord.ID(): StreamReliableUnordered, exp.ID(): StreamExpiring,
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.mode != wantMode[r.id] {
				t.Fatalf("stream %d mode = %v, want %v", r.id, r.mode, wantMode[r.id])
			}
			// Loopback is lossless, so even the expiring stream delivers
			// everything; the unordered stream delivers in arrival order,
			// which without loss is send order.
			if !bytes.Equal(r.data, want[r.id]) {
				t.Fatalf("stream %d delivered %d bytes, want %d (content mismatch)",
					r.id, len(r.data), len(want[r.id]))
			}
		case <-time.After(20 * time.Second):
			t.Fatal("timed out waiting for stream results")
		}
	}

	// The connection closes once every stream resolved.
	select {
	case <-conn.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("connection did not close after all streams finished")
	}
	st, ok := conn.StreamStats(unord.ID())
	if !ok || st.DataBytesSent != 32<<10 {
		t.Fatalf("unordered stream stats = %+v/%v", st, ok)
	}
}

// TestStreamRefusedByLegacyResponder pins the fallback: a server whose
// constraints refuse streams pins the client to the legacy layout, and
// the plain single-stream transfer still works.
func TestStreamRefusedByLegacyResponder(t *testing.T) {
	cons := core.Permissive(1e7)
	cons.MaxStreams = 0
	l, err := Listen("127.0.0.1:0", cons)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan int, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		total := 0
		for !conn.Finished() {
			chunk, ok := conn.Read(2 * time.Second)
			if !ok {
				select {
				case <-conn.Done():
					done <- total
					return
				default:
					continue
				}
			}
			total += len(chunk)
			conn.Release(chunk)
		}
		// Finished flips when the state machine has delivered everything;
		// the tail may still be queued for the application.
		for {
			chunk, ok := conn.Read(100 * time.Millisecond)
			if !ok {
				break
			}
			total += len(chunk)
			conn.Release(chunk)
		}
		done <- total
	}()

	conn, err := Dial(l.Addr().String(), multiStreamProfile(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.MultiStream() {
		t.Fatal("streams negotiated against a refusing responder")
	}
	if _, err := conn.OpenStream(StreamReliableOrdered, 0); err == nil {
		t.Fatal("OpenStream succeeded on a legacy connection")
	}
	const total = 32 << 10
	if _, err := conn.Write(make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	conn.CloseSend()
	select {
	case got := <-done:
		if got != total {
			t.Fatalf("delivered %d bytes, want %d", got, total)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("legacy transfer timed out")
	}
}

// TestOpenStreamOnResumedDial pins that a stream can be opened the
// moment Dial returns. A 0-RTT resume returns after the first flight,
// before the Accept lands, while the state machine is still Connecting;
// OpenStream has to wait out the handshake instead of failing with
// "frame invalid in this state" (qtpbench -loopback -streams 3 -conns 4
// hit it on its resumed dials).
func TestOpenStreamOnResumedDial(t *testing.T) {
	skipIfCleartext(t)
	l, err := Listen("127.0.0.1:0", core.Permissive(1e7))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	msg := bytes.Repeat([]byte("stream"), 512)
	for _, wantEarly := range []bool{false, true} {
		gotCh := make(chan string, 1)
		go func() {
			var got []byte
			defer func() { gotCh <- string(got) }()
			sc, err := l.Accept()
			if err != nil {
				return
			}
			defer sc.Close()
			s, ok := sc.AcceptStream(10 * time.Second)
			if !ok {
				return
			}
			for {
				chunk, ok := s.Read(10 * time.Second)
				if !ok {
					return
				}
				got = append(got, chunk...)
				s.Release(chunk)
			}
		}()

		conn, err := client.Dial(l.Addr().String(), multiStreamProfile(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s, err := conn.OpenStream(StreamReliableOrdered, 0)
		if err != nil {
			t.Fatalf("open stream right after Dial (resumed=%v): %v", wantEarly, err)
		}
		conn.mu.Lock()
		early := conn.inner.CryptoInfo().EarlyOffered
		conn.mu.Unlock()
		if early != wantEarly {
			t.Fatalf("dial offered 0-RTT = %v, want %v", early, wantEarly)
		}
		if _, err := s.Write(msg); err != nil {
			t.Fatal(err)
		}
		s.CloseSend()
		conn.CloseSend()
		select {
		case <-conn.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("close exchange never finished")
		}
		conn.Close()
		select {
		case got := <-gotCh:
			if got != string(msg) {
				t.Fatalf("server read %d bytes on the stream, want %d (resumed=%v)", len(got), len(msg), wantEarly)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server never finished reading")
		}
	}
}
