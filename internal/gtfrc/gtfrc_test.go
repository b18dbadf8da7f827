package gtfrc

import (
	"math"
	"testing"
	"time"

	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

func newCtl(g float64) *Controller {
	return New(tfrc.NewSender(tfrc.SenderConfig{SegmentSize: 1000}), g)
}

func TestGuaranteeFromStart(t *testing.T) {
	c := newCtl(500_000)
	// Plain TFRC starts at 1 segment/s; gTFRC must start at g.
	if c.Rate() < 500_000 {
		t.Fatalf("initial rate = %v, want >= g", c.Rate())
	}
	c.Start(0)
	if c.Rate() < 500_000 {
		t.Fatalf("rate after Start = %v, want >= g", c.Rate())
	}
}

func TestClampUnderHeavyLoss(t *testing.T) {
	c := newCtl(200_000)
	c.Start(0)
	c.SeedRTT(0, 100*time.Millisecond)
	// Catastrophic loss report: equation rate collapses, g must hold.
	c.OnFeedback(time.Second, tfrc.FeedbackInfo{
		XRecv: 10_000, P: 0.5, RTTSample: 100 * time.Millisecond,
	})
	if c.Rate() < 200_000 {
		t.Fatalf("rate = %v fell below g under loss", c.Rate())
	}
	// Equation value would be far below g.
	if eq := tfrc.Throughput(1000, c.RTT(), 0.5); eq >= 200_000 {
		t.Fatalf("test premise broken: equation %v >= g", eq)
	}
}

func TestAboveGuaranteeBehavesLikeTFRC(t *testing.T) {
	// With mild loss the equation rate exceeds g: gTFRC must track TFRC
	// exactly (the guarantee is inactive).
	g := 10_000.0
	c := newCtl(g)
	plain := tfrc.NewSender(tfrc.SenderConfig{SegmentSize: 1000})
	c.Start(0)
	plain.Start(0)
	c.SeedRTT(0, 100*time.Millisecond)
	plain.SeedRTT(0, 100*time.Millisecond)
	fb := tfrc.FeedbackInfo{XRecv: 5e6, P: 0.001, RTTSample: 100 * time.Millisecond}
	c.OnFeedback(time.Second, fb)
	plain.OnFeedback(time.Second, fb)
	if math.Abs(c.Rate()-plain.Rate()) > 1e-9 {
		t.Fatalf("gTFRC %v != TFRC %v above the guarantee", c.Rate(), plain.Rate())
	}
}

func TestNoFeedbackNeverBelowG(t *testing.T) {
	c := newCtl(300_000)
	c.Start(0)
	c.SeedRTT(0, 50*time.Millisecond)
	for i := 0; i < 20; i++ {
		c.OnNoFeedback(time.Duration(i) * time.Second)
	}
	if c.Rate() < 300_000 {
		t.Fatalf("nofeedback drove rate to %v, below g", c.Rate())
	}
}

// TestGTFRCClampsEstimatorReport covers gTFRC over QTPlight's TFRC,
// whose reports arrive through OnAckVector rather than OnFeedback: a loss
// pattern that drives a plain sender-loss TFRC well below g must leave
// the gTFRC rate at g or above after every vector.
func TestGTFRCClampsEstimatorReport(t *testing.T) {
	const (
		g   = 500_000.0
		rtt = 50 * time.Millisecond
	)
	newSender := func() *tfrc.Sender {
		est := tfrc.NewSenderEstimator(tfrc.EstimatorConfig{SegmentSize: 1000})
		s := tfrc.NewSender(tfrc.SenderConfig{SegmentSize: 1000, Estimator: est})
		s.Start(0)
		s.SeedRTT(0, rtt)
		return s
	}
	plain, c := newSender(), New(newSender(), g)
	c.Start(0)
	c.SeedRTT(0, rtt)
	var got seqspace.IntervalSet
	var cum seqspace.Seq
	for i := 0; i < 3000; i++ {
		now := rtt + time.Duration(i)*time.Millisecond
		plain.OnSent(now, seqspace.Seq(i), 1000)
		c.OnSent(now, seqspace.Seq(i), 1000)
		if i%5 != 0 { // one packet in five lost
			got.AddSeq(seqspace.Seq(i))
		}
		cum = got.FirstMissingAfter(cum)
		got.RemoveBefore(cum)
		plain.OnAckVector(now, cum, got.Ranges(), rtt)
		c.OnAckVector(now, cum, got.Ranges(), rtt)
		if c.Rate() < g {
			t.Fatalf("at %v the estimator's report drove gTFRC to %v, below g = %v", now, c.Rate(), g)
		}
	}
	if plain.Rate() >= g/2 {
		t.Fatalf("test premise broken: plain sender-loss TFRC at %v, not far below g", plain.Rate())
	}
}

func TestTargetRateAccessor(t *testing.T) {
	c := newCtl(123_456)
	if c.TargetRate() != 123_456 {
		t.Fatal("TargetRate mismatch")
	}
}

func TestZeroTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("g=0 should panic")
		}
	}()
	newCtl(0)
}
