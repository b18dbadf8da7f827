package qtp

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/workload"
)

// largeBDPPath is the acceptance topology for the congestion-control
// head-to-head: a 100 Mbit/s (12.5 MB/s) bottleneck with 100 ms RTT and
// light random loss. BDP ≈ 1.25 MB ≈ 1000 segments — the regime where
// the TFRC equation caps throughput near s/(R·sqrt(2p/3)) ≈ 0.5 MB/s
// while a bandwidth×RTT estimator can fill the pipe.
func largeBDPPath(seed int64) *testPath {
	return newTestPath(seed, 12.5e6, 50*time.Millisecond,
		netsim.NewDropTail(2048), netsim.Bernoulli{P: 0.001})
}

// bbrProfile is QTPlight-with-reliability running the BBR controller:
// per-packet SACKs feed the controller's ledger, the scoreboard handles
// loss.
func bbrProfile() core.Profile {
	p := core.QTPLightReliable(0)
	p.Congestion = packet.CongestionBBR
	return p
}

// TestBBRBeatsTFRCOnLargeBDP is the PR's acceptance bar: same path, same
// 10-second bulk ramp, BBR must deliver at least twice TFRC's bytes.
func TestBBRBeatsTFRCOnLargeBDP(t *testing.T) {
	run := func(prof core.Profile) *Flow {
		p := largeBDPPath(42)
		f := p.startFlow(FlowConfig{
			Profile: prof,
			RTTHint: 100 * time.Millisecond,
			Bulk:    true,
		})
		p.sim.Run(10 * time.Second)
		return f
	}
	tfrcFlow := run(core.QTPLightReliable(0))
	bbrFlow := run(bbrProfile())

	tB, bB := tfrcFlow.DeliveredBytes, bbrFlow.DeliveredBytes
	t.Logf("10s ramp on 12.5 MB/s × 100 ms, p=0.001: tfrc=%d B (%.0f B/s), bbr=%d B (%.0f B/s)",
		tB, float64(tB)/10, bB, float64(bB)/10)
	if tB == 0 {
		t.Fatal("TFRC flow delivered nothing — topology broken")
	}
	if bB < 2*tB {
		t.Fatalf("BBR delivered %d B, want ≥ 2× TFRC's %d B", bB, tB)
	}
	b := bbrFlow.Sender.BBR()
	if b == nil {
		t.Fatal("BBR flow is not running the BBR controller")
	}
	if bw := b.Bandwidth(); bw < 0.5*12.5e6 {
		t.Errorf("bandwidth estimate %.0f B/s, want at least half the 12.5e6 link", bw)
	}
}

// classicBBR asks for BBR over classic receiver reports, unreliable.
func classicBBR() core.Profile {
	p := core.ClassicTFRC()
	p.Congestion = packet.CongestionBBR
	return p
}

// TestBBRReadsAckVectorsOnly: BBR asked for over classic receiver
// reports runs over bare ack vectors, proposed directly or negotiated;
// the receiver sends no report at all.
func TestBBRReadsAckVectorsOnly(t *testing.T) {
	for _, handshake := range []bool{false, true} {
		p := newTestPath(7, 1.25e6, 20*time.Millisecond, netsim.NewDropTail(256), nil)
		f := p.startFlow(FlowConfig{
			Profile:     classicBBR(),
			Handshake:   handshake,
			Constraints: core.Permissive(0),
			RTTHint:     40 * time.Millisecond,
			Source:      workload.NewBulk(500_000, 50_000),
		})
		p.sim.Run(30 * time.Second)
		if !f.Receiver.Finished() || f.DeliveredBytes != 500_000 {
			t.Fatalf("handshake=%v: delivered %d of 500000, finished %v", handshake, f.DeliveredBytes, f.Receiver.Finished())
		}
		if b := f.Sender.BBR(); b == nil || b.Bandwidth() <= 0 {
			t.Fatalf("handshake=%v: sender not on BBR, or no delivery sample reached it", handshake)
		}
		if st := f.Receiver.Stats(); st.FeedbackFrames != 0 || st.SACKFrames == 0 {
			t.Fatalf("handshake=%v: receiver sent %d reports and %d ack vectors, want none and some",
				handshake, st.FeedbackFrames, st.SACKFrames)
		}
	}
}

// TestBBRMultiStream runs BBR under the multi-stream layout: the
// controller's ledger is keyed by the connection-level sequence space
// shared by all stream scoreboards.
func TestBBRMultiStream(t *testing.T) {
	prof := bbrProfile()
	prof.MaxStreams = 4
	p := newTestPath(8, 1.25e6, 20*time.Millisecond, netsim.NewDropTail(256),
		netsim.Bernoulli{P: 0.01})
	f := p.startFlow(FlowConfig{
		Profile: prof,
		RTTHint: 40 * time.Millisecond,
		Source:  workload.NewBulk(400_000, 50_000),
	})
	p.sim.Run(60 * time.Second)
	if f.DeliveredBytes != 400_000 {
		t.Fatalf("delivered %d, want 400000", f.DeliveredBytes)
	}
	if f.Sender.BBR() == nil {
		t.Fatal("sender not on BBR")
	}
}

// TestBBRNegotiatedOverHandshake: a Permissive responder grants the BBR
// proposal through the congestion TLV and both sides instantiate it.
func TestBBRNegotiatedOverHandshake(t *testing.T) {
	p := newTestPath(9, 1.25e6, 10*time.Millisecond, netsim.NewDropTail(128), nil)
	f := p.startFlow(FlowConfig{
		Profile:     bbrProfile(),
		Handshake:   true,
		Constraints: core.Permissive(0),
		Source:      workload.NewBulk(200_000, 20_000),
	})
	p.sim.Run(30 * time.Second)
	if got := f.Sender.Profile().Congestion; got != packet.CongestionBBR {
		t.Fatalf("sender negotiated cc=%v, want bbr", got)
	}
	if got := f.Receiver.Profile().Congestion; got != packet.CongestionBBR {
		t.Fatalf("receiver negotiated cc=%v, want bbr", got)
	}
	if f.Sender.BBR() == nil {
		t.Fatal("granted BBR but sender runs the TFRC family")
	}
	if f.DeliveredBytes != 200_000 {
		t.Fatalf("delivered %d, want 200000", f.DeliveredBytes)
	}
}

// TestBBRNegotiationFallsBackToTFRC: a responder that refuses BBR
// (AllowBBR=false — also what a pre-TLV build effectively does) grants
// the TFRC family; the connection must run and complete on TFRC.
func TestBBRNegotiationFallsBackToTFRC(t *testing.T) {
	cons := core.Permissive(0)
	cons.AllowBBR = false
	p := newTestPath(10, 1.25e6, 10*time.Millisecond, netsim.NewDropTail(128), nil)
	f := p.startFlow(FlowConfig{
		Profile:     bbrProfile(),
		Handshake:   true,
		Constraints: cons,
		Source:      workload.NewBulk(200_000, 20_000),
	})
	p.sim.Run(30 * time.Second)
	if got := f.Sender.Profile().Congestion; got != packet.CongestionTFRC {
		t.Fatalf("sender negotiated cc=%v, want tfrc fallback", got)
	}
	if f.Sender.BBR() != nil {
		t.Fatal("fallback negotiated but sender still runs BBR")
	}
	if f.DeliveredBytes != 200_000 {
		t.Fatalf("delivered %d, want 200000", f.DeliveredBytes)
	}
}

// TestTFRCLedgerIdenticalThroughAdapter pins a TFRC flow driven through
// the core.RateController seam to one delivery and frame ledger, run
// after run.
// (Byte-level equivalence is implied: same frames, same times, same
// deterministic simulator seed.)
func TestTFRCLedgerIdenticalThroughAdapter(t *testing.T) {
	run := func() (Stats, Stats, int) {
		p := newTestPath(11, 250_000, 15*time.Millisecond, netsim.NewDropTail(64),
			netsim.Bernoulli{P: 0.02})
		f := p.startFlow(FlowConfig{
			Profile: core.QTPLightReliable(0),
			RTTHint: 30 * time.Millisecond,
			Source:  workload.NewBulk(300_000, 30_000),
		})
		p.sim.Run(60 * time.Second)
		return f.Sender.Stats(), f.Receiver.Stats(), f.DeliveredBytes
	}
	s1, r1, d1 := run()
	s2, r2, d2 := run()
	if s1 != s2 || r1 != r2 || d1 != d2 {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", s1, s2)
	}
	if d1 != 300_000 {
		t.Fatalf("delivered %d, want 300000", d1)
	}
}
