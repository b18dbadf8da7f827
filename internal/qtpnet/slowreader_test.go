package qtpnet

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSlowReaderLosesNothing is the paper's QTPAF promise under an
// ordinary application: a writer that sends back to back for a second
// while the reader takes its time between reads. Whatever the transport
// acknowledged it must deliver — a reliable stream hands over every byte
// exactly once, an expiring stream may only lose what passed its
// deadline — with the endpoint's default configuration. The reader
// waits 500 µs per 1,400 B (one default segment) it took.
//
// The stream carries the big-endian counter 0, 1, 2, … in 8-byte words.
// Every write and the MSS are multiples of 8, so each delivered chunk
// holds whole words and names its own position in the stream, which is
// what lets the unordered and expiring modes be checked too.
func TestSlowReaderLosesNothing(t *testing.T) {
	modes := []struct {
		name     string
		mode     StreamMode
		deadline time.Duration
	}{
		{"reliable-ordered", StreamReliableOrdered, 0},
		{"reliable-unordered", StreamReliableUnordered, 0},
		{"expiring", StreamExpiring, 100 * time.Millisecond},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			slowReader(t, m.mode, m.deadline)
		})
	}
}

func slowReader(t *testing.T, mode StreamMode, deadline time.Duration) {
	l, err := Listen("127.0.0.1:0", core.Permissive(1e7))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type tally struct {
		words, dups, corrupt, gaps int
		err                        string
	}
	got := make(chan tally, 1)
	go func() {
		var r tally
		defer func() { got <- r }()
		conn, err := l.Accept()
		if err != nil {
			r.err = err.Error()
			return
		}
		defer conn.Close()
		s, ok := conn.AcceptStream(10 * time.Second)
		if !ok {
			r.err = "AcceptStream timed out"
			return
		}
		var seen []bool // by word index
		next := uint64(0)
		for {
			chunk, ok := s.Read(10 * time.Second)
			if !ok {
				break // connection closed and drained, or the sender stalled
			}
			if len(chunk)%8 != 0 {
				r.corrupt++
			}
			for i := 0; i+8 <= len(chunk); i += 8 {
				w := binary.BigEndian.Uint64(chunk[i:])
				if i > 0 && w != binary.BigEndian.Uint64(chunk[i-8:])+1 {
					r.corrupt++
				}
				if w >= 1<<32 {
					r.corrupt++
					continue
				}
				for uint64(len(seen)) <= w {
					seen = append(seen, false)
				}
				if seen[w] {
					r.dups++
				}
				seen[w] = true
				if mode == StreamReliableOrdered && w != next {
					r.gaps++
				}
				next = w + 1
				r.words++
			}
			s.Release(chunk)
			// 500 µs per full segment's bytes, however many segments
			// the chunk carries.
			time.Sleep(time.Duration(len(chunk)) * 500 * time.Microsecond / core.DefaultMSS)
		}
		if mode != StreamReliableOrdered {
			for _, ok := range seen {
				if !ok {
					r.gaps++
				}
			}
		}
	}()

	profile := core.QTPAF(1e6)
	profile.MaxStreams = 8
	conn, err := Dial(l.Addr().String(), profile, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	s, err := conn.OpenStream(mode, deadline)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 64<<10)
	written := uint64(0) // in words
	start := time.Now()
	for stop := start.Add(time.Second); time.Now().Before(stop); {
		for i := 0; i < len(block); i += 8 {
			binary.BigEndian.PutUint64(block[i:], written)
			written++
		}
		if _, err := s.Write(block); err != nil {
			t.Fatalf("write after %d words: %v", written, err)
		}
	}
	s.CloseSend()
	conn.CloseSend()

	select {
	case <-conn.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("connection did not close after the writer finished (%d words written)", written)
	}
	// The sender's side of the regime: how much it sent and resent to be
	// heard, and how long the reader's pace held the connection open.
	st := conn.Stats()
	t.Logf("%v sender: %d data frames, %d retransmitted, %d frames received; done after %v",
		mode, st.DataFramesSent, st.RetransFrames, st.FramesReceived, time.Since(start).Round(time.Millisecond))
	var r tally
	select {
	case r = <-got:
	case <-time.After(30 * time.Second):
		t.Fatal("reader did not finish")
	}
	if r.err != "" {
		t.Fatal(r.err)
	}
	t.Logf("wrote %d words, read %d (%.1f%%), %d gaps, %d duplicates, rx drops %d",
		written, r.words, 100*float64(r.words)/float64(written), r.gaps, r.dups, l.Stats().RecvDrops)
	if r.corrupt != 0 || r.dups != 0 {
		t.Errorf("%d corrupt words, %d delivered twice", r.corrupt, r.dups)
	}
	if mode == StreamExpiring {
		if r.words == 0 {
			t.Error("expiring stream delivered nothing")
		}
		return
	}
	if uint64(r.words) != written || r.gaps != 0 {
		t.Errorf("reliable stream delivered %d of %d words with %d gaps", r.words, written, r.gaps)
	}
}

// TestReadQueueIsInert pins that the deprecated EndpointConfig.ReadQueue
// sizes nothing: half a megabyte sent to a reader that has not started
// reading is all there when it does, whether the field says 1 or 4096.
func TestReadQueueIsInert(t *testing.T) {
	const total = 512 << 10
	for _, depth := range []int{1, 4096} {
		srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
			AcceptInbound: true, Constraints: core.Permissive(1e7), ReadQueue: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := Dial(srv.Addr().String(), core.QTPAF(1e7), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(make([]byte, total)); err != nil {
			t.Fatal(err)
		}
		conn.CloseSend()
		// The whole transfer fits under the unread bound, so the sender
		// resolves and closes before the reader has taken a byte.
		select {
		case <-conn.Done():
		case <-time.After(20 * time.Second):
			t.Fatalf("ReadQueue %d: sender did not finish against an idle reader", depth)
		}
		conn.Close()
		sc, err := srv.Accept()
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for !sc.Finished() {
			chunk, ok := sc.Read(time.Second)
			if !ok {
				break
			}
			got += len(chunk)
			sc.Release(chunk)
		}
		if drops := srv.Stats().RecvDrops; got != total || drops != 0 {
			t.Errorf("ReadQueue %d: read %d of %d bytes, %d arrivals refused", depth, got, total, drops)
		}
		sc.Close()
		srv.Close()
	}
}
