package qtp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seqspace"
)

// fixedRate is a constant-rate controller, so a test knows every frame's
// interval in advance; blocked makes it window-limited (CanSend false),
// as BBR is with a full bottleneck-delay product in flight.
type fixedRate struct {
	rate    float64 // bytes/s
	blocked bool
}

func (f *fixedRate) Start(time.Duration)                                                      {}
func (f *fixedRate) SeedRTT(_, _ time.Duration)                                               {}
func (f *fixedRate) OnSent(time.Duration, seqspace.Seq, int)                                  {}
func (f *fixedRate) OnAckVector(time.Duration, seqspace.Seq, []seqspace.Range, time.Duration) {}
func (f *fixedRate) OnFeedback(time.Duration, core.Feedback)                                  {}
func (f *fixedRate) OnNoFeedback(time.Duration)                                               {}
func (f *fixedRate) PacingRate() float64                                                      { return f.rate }
func (f *fixedRate) CanSend() bool                                                            { return !f.blocked }
func (f *fixedRate) RTT() time.Duration                                                       { return time.Millisecond }
func (f *fixedRate) NoFeedbackDeadline() time.Duration                                        { return math.MaxInt64 }
func (f *fixedRate) InterPacketInterval(size int) time.Duration {
	return time.Duration(float64(size) / f.rate * float64(time.Second))
}

// pacedSender is an established sender with a fixedRate controller: 1 MB/s,
// so a full 1000-byte-MSS frame is paced at a whole number of nanoseconds.
func pacedSender(prof core.Profile) (*Conn, *fixedRate) {
	prof.MSS = 1000
	prof = prof.Normalize()
	c := NewConn(Config{Initiator: true, Profile: prof, ConnID: 1})
	c.StartDirect(0, prof, 0)
	rc := &fixedRate{rate: 1e6}
	c.rc = rc
	return c, rc
}

// drain polls at now until the sender has nothing due, the way a driver
// services a connection, and returns the frames and bytes it released.
func drain(c *Conn, now time.Duration) (frames, bytes int) {
	for {
		f, ok := c.PollFrame(now)
		if !ok {
			return frames, bytes
		}
		frames++
		bytes += len(f)
	}
}

// fullFrameIPI sends the first frame of a big backlog at time 0 and
// returns the pacing interval of a full data frame.
func fullFrameIPI(t *testing.T, c *Conn) time.Duration {
	t.Helper()
	c.Write(make([]byte, 1<<20))
	n, b := drain(c, 0)
	if n != 1 {
		t.Fatalf("first poll sent %d frames, want 1", n)
	}
	return c.rc.InterPacketInterval(b)
}

// TestPaceLatePollBurst: a poll L past the pacing boundary of a
// pacing-limited sender releases the frames whose send times it slept
// through, min(⌊L/ipi⌋+1, paceBurst), and the schedule keeps its own
// time from there.
func TestPaceLatePollBurst(t *testing.T) {
	c, _ := pacedSender(core.ClassicTFRC())
	ipi := fullFrameIPI(t, c)
	for _, late := range []time.Duration{0, ipi / 2, ipi, 7 * ipi / 2, 14 * ipi, 15 * ipi, 16 * ipi, 40 * ipi, 0, 3 * ipi} {
		want := min(int(late/ipi)+1, paceBurst)
		if got, _ := drain(c, c.nextSendAt+late); got != want {
			t.Errorf("poll %v (%.1f intervals) late: %d frames, want %d", late, float64(late)/float64(ipi), got, want)
		}
	}
}

// TestPaceNoBurstAfterIdle: credit exists only for send times a
// pacing-limited sender missed. A sender that had nothing to send
// (app-limited), was held by its controller's window or had only
// retransmissions owed restarts its schedule at the poll, however long
// ago its last frame left.
func TestPaceNoBurstAfterIdle(t *testing.T) {
	t.Run("app-limited", func(t *testing.T) {
		c, _ := pacedSender(core.ClassicTFRC())
		c.Write(make([]byte, 1000))
		if n, _ := drain(c, 0); n != 1 {
			t.Fatalf("sent %d frames of a one-frame write", n)
		}
		now := time.Second
		c.Write(make([]byte, 1<<20))
		if n, _ := drain(c, now); n != 1 {
			t.Errorf("a write after an idle second released %d frames at once, want 1", n)
		}
	})
	t.Run("window-limited", func(t *testing.T) {
		c, rc := pacedSender(core.ClassicTFRC())
		ipi := fullFrameIPI(t, c)
		rc.blocked = true
		if n, _ := drain(c, c.nextSendAt); n != 0 {
			t.Fatalf("a window-limited sender sent %d frames", n)
		}
		rc.blocked = false
		if n, _ := drain(c, c.nextSendAt+40*ipi); n != 1 {
			t.Errorf("the window reopening released %d frames at once, want 1", n)
		}
	})
	t.Run("retransmit-only", func(t *testing.T) {
		c, _ := pacedSender(core.QTPAF(0))
		c.Write(make([]byte, 8*1000))
		at := time.Duration(0)
		for sent := 0; sent < 8; {
			n, _ := drain(c, at)
			sent += n
			at = c.nextSendAt
		}
		// Nothing acknowledges the eight segments: once the retransmission
		// timer passes, all eight are owed again, and only retransmissions.
		at += time.Second
		if n, _ := drain(c, at); n != 1 {
			t.Errorf("eight overdue retransmissions left %d at once, want 1", n)
		}
		if st := c.Stats(); st.RetransFrames != 1 {
			t.Errorf("%d retransmissions, want 1", st.RetransFrames)
		}
	})
}

// TestPaceLongRunRate drives a backlogged sender the way a real loop
// does — sleep until NextWake, wake up late by a random amount — and
// holds what it sends to the controller's rate plus one burst. While
// every wake is less than a burst late, the credit also makes it reach
// that rate: lateness costs no throughput.
func TestPaceLongRunRate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxLate  int // in pacing intervals
		fullRate bool
	}{
		{"late-within-a-burst", paceBurst - 1, true},
		{"late-beyond-a-burst", 5 * paceBurst, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, rc := pacedSender(core.ClassicTFRC())
			ipi := fullFrameIPI(t, c)
			frame := int(rc.rate * ipi.Seconds())
			rng := rand.New(rand.NewSource(7))
			refill := make([]byte, 1<<20)
			now, sent := time.Duration(0), frame
			for i := 0; i < 20000; i++ {
				c.Write(refill) // keep the backlog full: takes only what was sent
				wake, ok := c.NextWake(now)
				if !ok {
					t.Fatal("backlogged sender has no wake-up")
				}
				now = wake + time.Duration(rng.Int63n(int64(tc.maxLate)*int64(ipi)))
				_, b := drain(c, now)
				sent += b
			}
			allowed := rc.rate * now.Seconds()
			t.Logf("sent %d bytes in %v: %.3f of the pacing rate", sent, now, float64(sent)/allowed)
			if float64(sent) > allowed+float64(paceBurst*frame) {
				t.Errorf("sent %d bytes in %v, more than the rate's %.0f plus one burst", sent, now, allowed)
			}
			if tc.fullRate && float64(sent) < allowed-float64(paceBurst*frame) {
				t.Errorf("sent %d bytes in %v, short of the rate's %.0f by more than a burst", sent, now, allowed)
			}
		})
	}
}
