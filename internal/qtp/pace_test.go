package qtp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
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

// TestPaceQuantum: at 1 GB/s a full frame's interval is about 1 µs, so
// the sender paces in quanta of q = min(⌊100 µs/ipi⌋, 64) frames. The
// first poll after a write releases a whole quantum, NextWake reports
// the schedule less the quantum's lead, a driver polling exactly there
// is never late and keeps that lead one frame at a time, and a driver
// that sleeps to the pacing boundary itself — a loop that parks between
// wakes — sends one whole quantum per wake at exactly the rate.
func TestPaceQuantum(t *testing.T) {
	c, rc := pacedSender(core.ClassicTFRC())
	rc.rate = 1e9
	frame := c.profile.MSS + packet.HeaderLen
	ipi := rc.InterPacketInterval(frame)
	q := min(int(paceQuantum/ipi), paceQuantumFrames)
	if q < 2 {
		t.Fatalf("1 GB/s paces %v a frame: no quantum", ipi)
	}
	if got, want := c.paceAhead(), time.Duration(q-1)*ipi; got != want {
		t.Fatalf("paceAhead = %v, want %d intervals of %v", got, q-1, ipi)
	}

	refill := make([]byte, 1<<20)
	c.Write(refill)
	if n, b := drain(c, 0); n != q || b != q*frame {
		t.Fatalf("first poll after a 1 MiB write: %d frames, %d bytes; want a quantum of %d full frames", n, b, q)
	}
	now, ok := c.NextWake(0)
	if want := c.nextSendAt - c.paceAhead(); !ok || now != want {
		t.Fatalf("NextWake = %v, %v; want nextSendAt − paceAhead = %v", now, ok, want)
	}
	for sent := q; sent < 1000; {
		c.Write(refill) // keep the backlog full: takes only what was sent
		if n, _ := drain(c, now); n != 1 {
			t.Fatalf("poll at NextWake %v sent %d frames, want 1", now, n)
		}
		sent++
		if lead := sent - int(now/ipi); lead != q {
			t.Fatalf("%d frames sent by %v: %d past the rate, want the quantum's %d", sent, now, lead, q)
		}
		now, _ = c.NextWake(now)
	}
	for i := 0; i < 100; i++ {
		c.Write(refill)
		if n, _ := drain(c, c.nextSendAt); n != q {
			t.Fatalf("wake %d at the pacing boundary: %d frames, want a quantum of %d", i, n, q)
		}
	}
}

// TestPaceDueSkipsTheLead holds dataDue, which reads the pacing lead
// only when it can matter, to the due test it stands for, now +
// paceAhead() ≥ nextSendAt, at rates from well below one quantum frame
// to the 64-frame cap and at send times from a quantum and more behind
// to a quantum and more ahead.
func TestPaceDueSkipsTheLead(t *testing.T) {
	c, rc := pacedSender(core.ClassicTFRC())
	for _, rate := range []float64{1e6, 25e6, 28.5e6, 36e6, 1e8, 1e9, 1e11} {
		rc.rate = rate
		lead := c.paceAhead()
		for wait := -2 * paceQuantum; wait <= 2*paceQuantum; wait += time.Microsecond / 4 {
			for _, w := range []time.Duration{wait, lead, lead + 1} {
				c.nextSendAt = time.Second + w
				if got, want := c.dataDue(time.Second), time.Second+lead >= c.nextSendAt; got != want {
					t.Fatalf("rate %v, send time %v ahead, lead %v: dataDue = %v, want %v", rate, w, lead, got, want)
				}
			}
		}
	}
}

// TestPaceQuantumOffBelowRate: a sender paced slower than two full
// frames a quantum (28.5 MB/s at the default MSS) has no lead and paces
// one frame per interval, as it always did. The cases are the fastest
// pacing rates the simulated controllers reach: TFRC paces at most twice
// the receive rate, BBR at its gain times its bandwidth estimate. BBR's
// Startup gain is the one that crosses the line, and sends 2-frame
// quanta on the cc-matrix's 12.5 MB/s link.
func TestPaceQuantumOffBelowRate(t *testing.T) {
	c, rc := pacedSender(core.ClassicTFRC())
	c.profile.MSS = core.DefaultMSS // the MSS of the simulated paths below
	for _, tc := range []struct {
		name string
		rate float64 // bytes/s
		q    int     // frames a quantum
	}{
		{"pace tests", 1e6, 1},
		{"frame traces: TFRC at twice the 250 kB/s link", 2 * 250e3, 1},
		{"sim_lossy: TFRC at twice the 12.5 MB/s link", 2 * 12.5e6, 1},
		{"cc-matrix: BBR ProbeBW at 1.25 × 12.5 MB/s", 1.25 * 12.5e6, 1},
		{"cc-matrix: BBR Startup at 2/ln 2 × 12.5 MB/s", 2 / math.Ln2 * 12.5e6, 2},
	} {
		rc.rate = tc.rate
		ipi := rc.InterPacketInterval(core.DefaultMSS + packet.HeaderLen)
		if got, want := c.paceAhead(), time.Duration(tc.q-1)*ipi; got != want {
			t.Errorf("%s (%v a frame): paceAhead = %v, want %v", tc.name, ipi, got, want)
		}
	}
}

// TestPaceLongRunRate drives a backlogged sender the way a real loop
// does — sleep until NextWake, wake up late by a random amount — and
// holds what it sends to the controller's rate plus one burst and one
// quantum. While every wake is less than a burst late, the credit also
// makes it reach that rate: lateness costs no throughput.
func TestPaceLongRunRate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rate     float64 // bytes/s
		maxLate  int     // in pacing intervals
		fullRate bool
	}{
		{"late-within-a-burst", 1e6, paceBurst - 1, true},
		{"late-beyond-a-burst", 1e6, 5 * paceBurst, false},
		{"in-quanta", 1e9, paceBurst - 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, rc := pacedSender(core.ClassicTFRC())
			rc.rate = tc.rate
			frame := c.profile.MSS + packet.HeaderLen
			ipi := rc.InterPacketInterval(frame)
			q := 0 // frames in a quantum, none below its rate
			if a := c.paceAhead(); a > 0 {
				q = int(a/ipi) + 1
			}
			slack := float64((paceBurst + q) * frame)
			rng := rand.New(rand.NewSource(7))
			refill := make([]byte, 1<<20)
			now, sent := time.Duration(0), 0
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
			if float64(sent) > allowed+slack {
				t.Errorf("sent %d bytes in %v, more than the rate's %.0f plus one burst and one quantum", sent, now, allowed)
			}
			if tc.fullRate && float64(sent) < allowed-float64(paceBurst*frame) {
				t.Errorf("sent %d bytes in %v, short of the rate's %.0f by more than a burst", sent, now, allowed)
			}
		})
	}
}
