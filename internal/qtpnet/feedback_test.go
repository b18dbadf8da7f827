package qtpnet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qtp"
)

// TestFeedbackFloorLoopback runs msg_pingpong's shape over loopback: 256 B
// messages over two reliable ordered streams, the next message on a
// stream written when the reader has checked the one before it, so one is
// in flight on each. The loopback RTT is tens of µs, so once-per-RTT
// feedback would send about one report for every four data frames; the
// receiver's 1 ms report floor must bring that under one in twenty. A
// -race build runs the loop several times slower, so there the check is
// the floor itself: no more than about one report per millisecond.
func TestFeedbackFloorLoopback(t *testing.T) {
	const (
		msgs    = 20_000
		msgSize = 256
	)
	l, err := Listen("127.0.0.1:0", core.Permissive(1e9))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// read checks one stream's messages (message k of a stream is 256
	// copies of byte(k)) and reports each whole one on done; it returns
	// how many it read, or -1 at the first wrong byte.
	read := func(next func(time.Duration) ([]byte, bool), release func([]byte), i int, done chan<- int) int {
		k, at := 0, 0
		for {
			chunk, ok := next(5 * time.Second)
			if !ok {
				return k
			}
			for _, b := range chunk {
				if b != byte(k) {
					release(chunk)
					return -1
				}
				if at++; at == msgSize {
					k, at = k+1, 0
					done <- i
				}
			}
			release(chunk)
		}
	}
	done := make(chan int, msgs) // one send per message: readers never block
	type result struct {
		read  [2]int
		stats qtp.Stats
		err   string
	}
	served := make(chan result, 1)
	go func() {
		var r result
		defer func() { served <- r }()
		conn, err := l.Accept()
		if err != nil {
			r.err = err.Error()
			return
		}
		defer conn.Close()
		read1 := make(chan int, 1)
		go func() {
			s, ok := conn.AcceptStream(5 * time.Second)
			if !ok {
				read1 <- -1
				return
			}
			read1 <- read(s.Read, s.Release, 1, done)
		}()
		r.read[0] = read(conn.Read, conn.Release, 0, done)
		r.read[1] = <-read1
		select {
		case <-conn.Done():
		case <-time.After(10 * time.Second):
			r.err = "server connection did not close"
		}
		r.stats = conn.Stats()
	}()

	start := time.Now()
	profile := core.QTPAF(1e9)
	profile.MaxStreams = 8
	conn, err := Dial(l.Addr().String(), profile, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	s1, err := conn.OpenStream(StreamReliableOrdered, 0)
	if err != nil {
		t.Fatal(err)
	}
	writers := [2]func([]byte) (int, error){conn.Write, s1.Write}
	var sent [2]int
	msg := make([]byte, msgSize)
	write := func(i int) {
		for j := range msg {
			msg[j] = byte(sent[i])
		}
		if _, err := writers[i](msg); err != nil {
			t.Fatalf("write on stream %d: %v", i, err)
		}
		sent[i]++
	}
	write(0)
	write(1)
	for n := 2; n < msgs; n++ {
		select {
		case i := <-done:
			write(i)
		case <-time.After(10 * time.Second):
			t.Fatalf("no message delivered for 10 s after %d written", n)
		}
	}
	conn.CloseSend()
	s1.CloseSend()

	var r result
	select {
	case r = <-served:
	case <-time.After(30 * time.Second):
		t.Fatal("server did not finish")
	}
	elapsed := time.Since(start)
	if r.err != "" {
		t.Fatal(r.err)
	}
	if r.read != sent {
		t.Fatalf("read %v messages per stream, wrote %v", r.read, sent)
	}
	st := conn.Stats()
	frames := st.DataFramesSent + st.RetransFrames
	share := float64(r.stats.FeedbackFrames) / float64(frames)
	t.Logf("%d messages in %v: %d feedback frames for %d data frames (%d retransmitted), %.4f a frame",
		msgs, elapsed.Round(time.Millisecond), r.stats.FeedbackFrames, frames, st.RetransFrames, share)
	// Periodic reports are at least 1 ms apart; the slack covers the
	// urgent ones (the first packet, a loss event).
	if most := int(elapsed.Milliseconds()*11/10) + 10; r.stats.FeedbackFrames > most {
		t.Fatalf("%d feedback frames in %v, want ≤ %d", r.stats.FeedbackFrames, elapsed.Round(time.Millisecond), most)
	}
	if !raceEnabled && share > 0.05 {
		t.Fatalf("%.3f feedback frames per data frame, want ≤ 0.05", share)
	}
}
