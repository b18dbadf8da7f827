package tfrc

import (
	"math"
	"testing"
	"time"

	"repro/internal/seqspace"
)

func TestSenderInitialRate(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	if s.Rate() != 1000 {
		t.Fatalf("initial rate = %v, want 1 segment/s", s.Rate())
	}
	if !s.InSlowStart() {
		t.Error("new sender must be in slow start")
	}
}

func TestSenderSeedRTT(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	s.SeedRTT(0, 100*time.Millisecond)
	// RFC 3390 initial window: min(4s, max(2s, 4380)) = 4000 B per RTT.
	if got := s.Rate(); math.Abs(got-40_000) > 1 {
		t.Fatalf("seeded rate = %v, want 40000", got)
	}
	if s.RTT() != 100*time.Millisecond {
		t.Fatalf("rtt = %v", s.RTT())
	}
}

func TestSenderSlowStartDoubling(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	s.SeedRTT(0, 100*time.Millisecond)
	r0 := s.Rate()
	// Feedback with no loss and plentiful receive rate, one RTT later.
	s.OnFeedback(100*time.Millisecond, FeedbackInfo{XRecv: 1e9, RTTSample: 100 * time.Millisecond})
	if got := s.Rate(); math.Abs(got-2*r0) > 1 {
		t.Fatalf("rate after loss-free feedback = %v, want doubled %v", got, 2*r0)
	}
	// A second feedback within the same RTT must not double again.
	r1 := s.Rate()
	s.OnFeedback(150*time.Millisecond, FeedbackInfo{XRecv: 1e9, RTTSample: 100 * time.Millisecond})
	if s.Rate() != r1 {
		t.Fatalf("doubled twice in one RTT: %v -> %v", r1, s.Rate())
	}
}

func TestSenderSlowStartLimitedByXRecv(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	s.SeedRTT(0, 100*time.Millisecond)
	s.OnFeedback(100*time.Millisecond, FeedbackInfo{XRecv: 30_000, RTTSample: 100 * time.Millisecond})
	if got := s.Rate(); math.Abs(got-60_000) > 1 {
		t.Fatalf("rate = %v, want 2*X_recv = 60000", got)
	}
}

func TestSenderEquationModeAfterLoss(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	s.SeedRTT(0, 100*time.Millisecond)
	fb := FeedbackInfo{XRecv: 1e9, P: 0.01, RTTSample: 100 * time.Millisecond}
	s.OnFeedback(100*time.Millisecond, fb)
	want := Throughput(1000, s.RTT(), 0.01)
	if math.Abs(s.Rate()-want)/want > 1e-9 {
		t.Fatalf("rate = %v, want equation value %v", s.Rate(), want)
	}
	if s.InSlowStart() {
		t.Error("loss must leave slow start")
	}
}

func TestSenderEquationLimitedByXRecv(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	s.SeedRTT(0, 100*time.Millisecond)
	// Tiny loss -> huge equation rate, but X_recv caps it at 2*X_recv.
	s.OnFeedback(100*time.Millisecond, FeedbackInfo{XRecv: 10_000, P: 1e-9, RTTSample: 100 * time.Millisecond})
	if got := s.Rate(); math.Abs(got-20_000) > 1 {
		t.Fatalf("rate = %v, want 20000 (2*X_recv)", got)
	}
}

func TestSenderRTTSmoothing(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	s.OnFeedback(0, FeedbackInfo{XRecv: 1e6, RTTSample: 100 * time.Millisecond})
	s.OnFeedback(time.Second, FeedbackInfo{XRecv: 1e6, RTTSample: 200 * time.Millisecond})
	// R = 0.9*100ms + 0.1*200ms = 110ms.
	if got := s.RTT(); math.Abs(float64(got-110*time.Millisecond)) > 1e6 {
		t.Fatalf("rtt = %v, want 110ms", got)
	}
}

func TestSenderNoFeedbackHalving(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	s.SeedRTT(0, 100*time.Millisecond)
	s.OnFeedback(100*time.Millisecond, FeedbackInfo{XRecv: 100_000, P: 0.001, RTTSample: 100 * time.Millisecond})
	r0 := s.Rate()
	s.OnNoFeedback(500 * time.Millisecond)
	r1 := s.Rate()
	if r1 > r0/2+1 {
		t.Fatalf("no-feedback did not halve: %v -> %v", r0, r1)
	}
	// Repeated expiries keep halving down to the floor.
	for i := 0; i < 40; i++ {
		s.OnNoFeedback(time.Duration(i) * time.Second)
	}
	floor := float64(1000) / TMBI.Seconds()
	if s.Rate() < floor-1e-9 {
		t.Fatalf("rate %v fell below floor %v", s.Rate(), floor)
	}
}

func TestSenderNoFeedbackDeadline(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.Start(0)
	if got := s.NoFeedbackDeadline(); got != 2*time.Second {
		t.Fatalf("initial deadline = %v, want 2s", got)
	}
	s.SeedRTT(0, 100*time.Millisecond)
	s.OnFeedback(time.Second, FeedbackInfo{XRecv: 1e6, RTTSample: 100 * time.Millisecond})
	// Deadline = now + max(4*RTT, 2s/X); 4*RTT = 400ms here.
	want := time.Second + 400*time.Millisecond
	if got := s.NoFeedbackDeadline(); got != want {
		t.Fatalf("deadline = %v, want %v", got, want)
	}
}

// TestNoFeedbackIntervalFloor pins the nofeedback timer's floor of two
// report intervals: at a 50 µs RTT and 1 GB/s, max(4R, 2s/X) is 200 µs,
// five expiries between two reports at the 1 ms floor.
func TestNoFeedbackIntervalFloor(t *testing.T) {
	for _, c := range []struct{ rtt, want time.Duration }{
		{50 * time.Microsecond, 2 * time.Millisecond},
		{60 * time.Millisecond, 240 * time.Millisecond},
	} {
		s := NewSender(SenderConfig{SegmentSize: 1000})
		s.Start(0)
		s.SetRate(1e9)
		now := time.Second
		s.SeedRTT(now, c.rtt)
		if s.Rate() != 1e9 {
			t.Fatalf("R = %v: rate %v, want 1 GB/s", c.rtt, s.Rate())
		}
		if got := s.NoFeedbackDeadline() - now; got != c.want {
			t.Fatalf("R = %v, X = 1 GB/s: nofeedback deadline %v out, want %v", c.rtt, got, c.want)
		}
	}
}

func TestSenderInterPacketInterval(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.SetRate(100_000)
	if got := s.InterPacketInterval(1000); got != 10*time.Millisecond {
		t.Fatalf("t_ipi = %v, want 10ms", got)
	}
}

func TestSenderSetRateFloor(t *testing.T) {
	s := NewSender(SenderConfig{SegmentSize: 1000})
	s.SetRate(0.0001)
	floor := float64(1000) / TMBI.Seconds()
	if s.Rate() < floor-1e-9 {
		t.Fatalf("SetRate ignored floor: %v", s.Rate())
	}
}

// TestSenderEstimatorCadence pins QTPlight behind the rate-control seam.
// With an estimator the sender digests its own loss estimate from the
// per-packet events: at most once per RTT (a digest re-arms the
// nofeedback deadline, so a moved deadline is a report) and never from a
// window that acknowledged nothing new. Without one, the per-packet
// events change nothing.
func TestSenderEstimatorCadence(t *testing.T) {
	const rtt = 50 * time.Millisecond
	type view struct {
		rate, p, xRecv float64
		rtt, deadline  time.Duration
	}
	look := func(s *Sender) view { return view{s.Rate(), s.P(), s.XRecv(), s.RTT(), s.NoFeedbackDeadline()} }
	// drive sends a packet a millisecond, loses one in 50 and sends an ack
	// vector after each, calling step on the views around it.
	drive := func(s *Sender, step func(now time.Duration, before, after view)) (cum seqspace.Seq, blocks []seqspace.Range) {
		var got seqspace.IntervalSet
		for i := 0; i < 2000; i++ {
			now := rtt + time.Duration(i)*time.Millisecond
			s.OnSent(now, seqspace.Seq(i), 1000)
			if i%50 != 7 {
				got.AddSeq(seqspace.Seq(i))
			}
			cum = got.FirstMissingAfter(cum)
			got.RemoveBefore(cum)
			blocks = got.Ranges()
			before := look(s)
			s.OnAckVector(now, cum, blocks, rtt)
			step(now, before, look(s))
		}
		return cum, blocks
	}

	t.Run("estimator", func(t *testing.T) {
		s := NewSender(SenderConfig{SegmentSize: 1000, Estimator: NewSenderEstimator(EstimatorConfig{SegmentSize: 1000})})
		s.Start(0)
		s.SeedRTT(0, rtt)
		last, reports := time.Duration(-1), 0
		cum, blocks := drive(s, func(now time.Duration, before, after view) {
			if after.deadline == before.deadline {
				if after != before {
					t.Fatalf("at %v the rate machine moved without a report: %+v -> %+v", now, before, after)
				}
				return
			}
			if last >= 0 && now-last < before.rtt {
				t.Fatalf("reports at %v and %v, under one RTT (%v) apart", last, now, before.rtt)
			}
			last, reports = now, reports+1
		})
		if reports < 2000/100 || s.P() == 0 {
			t.Fatalf("%d reports in 2 s at a 50 ms RTT, p = %v: the estimator did not drive the rate", reports, s.P())
		}
		// The last vector again, one RTT on: it reports what the window
		// holds. Once more, another RTT on: the cadence allows a report,
		// the empty window does not.
		before := look(s)
		s.OnAckVector(last+rtt, cum, blocks, rtt)
		if after := look(s); after.deadline == before.deadline {
			t.Fatalf("no report of a full window one RTT after the last: %+v", after)
		}
		before = look(s)
		s.OnAckVector(last+2*rtt, cum, blocks, rtt)
		if after := look(s); after != before {
			t.Fatalf("a vector with nothing new moved the rate machine: %+v -> %+v", before, after)
		}
	})

	t.Run("classic", func(t *testing.T) {
		s := NewSender(SenderConfig{SegmentSize: 1000})
		s.Start(0)
		s.SeedRTT(0, rtt)
		drive(s, func(now time.Duration, before, after view) {
			if after != before {
				t.Fatalf("at %v a per-packet event moved a classic sender: %+v -> %+v", now, before, after)
			}
		})
		if s.Estimator() != nil {
			t.Fatal("a classic sender has an estimator")
		}
	})
}

func TestSenderPanicsWithoutSegment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewSender(SenderConfig{})
}
