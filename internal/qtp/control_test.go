package qtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/workload"
)

// TestHandshakeSurvivesControlLoss drops 30% of all frames — including
// Connect/Accept/Confirm — and checks the handshake still completes via
// control retransmission and the transfer finishes.
func TestHandshakeSurvivesControlLoss(t *testing.T) {
	p := newTestPath(21, 125_000, 15*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.3})
	// The reverse path is lossy too for this test.
	p.rev = netsim.NewLink(p.sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: 15 * time.Millisecond,
		Queue: &netsim.DropTail{}, Loss: netsim.Bernoulli{P: 0.3}, Dst: p.toSend,
	})
	f := p.startFlow(FlowConfig{
		Profile:     core.QTPLightReliable(0),
		Handshake:   true,
		Constraints: core.Permissive(1e6),
		Source:      workload.NewBulk(30_000, 10_000),
	})
	p.sim.Run(240 * time.Second)
	if f.Sender.State() == StateIdle || f.Sender.State() == StateConnecting {
		t.Fatalf("handshake never completed: %v", f.Sender.State())
	}
	if f.DeliveredBytes != 30_000 {
		t.Fatalf("delivered %d of 30000 under 30%% bidirectional loss", f.DeliveredBytes)
	}
}

// framings is the input shared by the tests whose scenario is the same
// on either data framing: one engine runs both, so each runs as one
// more row instead of a second test.
var framings = []struct {
	name    string
	streams int // proposed MaxStreams
}{{"unprefixed", 0}, {"prefixed", 8}}

// framed returns p proposing the given stream count. The prefix needs a
// reliability micro-protocol (Profile.Normalize drops MaxStreams
// otherwise), so an unreliable profile is made fully reliable for it.
func framed(p core.Profile, streams int) core.Profile {
	p.MaxStreams = streams
	if streams >= 2 && p.Reliability == packet.ReliabilityNone {
		p.Reliability = packet.ReliabilityFull
	}
	return p
}

// checkFraming fails unless the sender runs the framing the row names.
func checkFraming(t *testing.T, c *Conn, streams int) {
	t.Helper()
	if got := c.MultiStream(); got != (streams >= 2) {
		t.Fatalf("MultiStream() = %v with %d streams proposed", got, streams)
	}
}

// TestCleanClose verifies the Close/CloseAck exchange shuts both ends,
// and that data written before Start — before the handshake has settled
// the framing — is delivered on stream 0 like the rest.
func TestCleanClose(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			p := newTestPath(22, 125_000, 10*time.Millisecond, netsim.NewDropTail(64), nil)
			f := p.startFlow(FlowConfig{
				Profile:     framed(core.QTPAF(50_000), fr.streams),
				Handshake:   true,
				Constraints: core.Permissive(1e6),
				Source:      workload.NewBulk(20_000, 10_000),
			})
			if n := f.Sender.Write(make([]byte, 5_000)); n != 5_000 {
				t.Fatalf("Write before Start accepted %d bytes", n)
			}
			p.sim.Run(30 * time.Second)
			checkFraming(t, f.Sender, fr.streams)
			if got := f.StreamDelivered[0]; got != 25_000 || f.DeliveredBytes != got {
				t.Fatalf("stream 0 delivered %d of %d bytes, want all 25000 there", got, f.DeliveredBytes)
			}
			if f.Sender.State() != StateClosed {
				t.Fatalf("sender state %v, want closed", f.Sender.State())
			}
			if f.Receiver.State() != StateClosed {
				t.Fatalf("receiver state %v, want closed", f.Receiver.State())
			}
		})
	}
}

// TestZeroDataStreamCloses covers the edge where CloseSend precedes any
// Write: the connection must still tear down (no FIN exists).
func TestZeroDataStreamCloses(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			p := newTestPath(23, 125_000, 10*time.Millisecond, netsim.NewDropTail(64), nil)
			f := p.startFlow(FlowConfig{
				Profile:     framed(core.ClassicTFRC(), fr.streams),
				Handshake:   true,
				Constraints: core.Permissive(0),
			})
			p.sim.After(time.Second, func() { f.CloseSend() })
			p.sim.Run(20 * time.Second)
			checkFraming(t, f.Sender, fr.streams)
			if f.Sender.State() != StateClosed {
				t.Fatalf("zero-data stream stuck in %v", f.Sender.State())
			}
		})
	}
}

// TestConnectGivesUp bounds the initiator's persistence when the peer
// never answers.
func TestConnectGivesUp(t *testing.T) {
	sim := netsim.New(24)
	var blackhole netsim.Sink
	fwd := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "fwd", Rate: 125_000, Delay: 10 * time.Millisecond, Dst: &blackhole,
	})
	f := StartFlow(sim, FlowConfig{
		ID: 1, Profile: core.ClassicTFRC(), Handshake: true,
		Fwd: fwd, Rev: fwd, Bulk: true,
	})
	sim.Run(60 * time.Second)
	if f.Sender.State() != StateClosed {
		t.Fatalf("initiator never gave up: %v", f.Sender.State())
	}
	if blackhole.Packets == 0 || blackhole.Packets > 10 {
		t.Fatalf("connect retries = %d, want bounded (1..10)", blackhole.Packets)
	}
}

// TestLostAcceptIsRetransmitted exercises the responder's Accept
// retransmission path when the initiator repeats its Connect.
func TestLostAcceptIsRetransmitted(t *testing.T) {
	responder := NewConn(Config{Constraints: core.Permissive(0), ConnID: 7})
	initiator := NewConn(Config{Initiator: true, Profile: core.ClassicTFRC(), ConnID: 7})
	initiator.Start(0)

	// First Connect reaches the responder; its Accept is "lost".
	frame, ok := initiator.PollFrame(0)
	if !ok {
		t.Fatal("no connect frame")
	}
	if err := responder.HandleFrame(0, frame); err != nil {
		t.Fatal(err)
	}
	if _, ok := responder.PollFrame(0); !ok {
		t.Fatal("responder produced no accept")
	}
	// Initiator retries at its control timer; the duplicate Connect must
	// trigger a fresh Accept rather than confuse the responder. One
	// second is past the first backoff interval even at max jitter.
	const retryAt = time.Second
	retry, ok := initiator.PollFrame(retryAt)
	if !ok {
		t.Fatal("no connect retry")
	}
	if err := responder.HandleFrame(retryAt, retry); err != nil {
		t.Fatal(err)
	}
	accept2, ok := responder.PollFrame(retryAt)
	if !ok {
		t.Fatal("no second accept")
	}
	if err := initiator.HandleFrame(retryAt+time.Millisecond, accept2); err != nil {
		t.Fatal(err)
	}
	if initiator.State() != StateEstablished {
		t.Fatalf("initiator state %v", initiator.State())
	}
}

// TestPlaintextRetryRepinsConnect: a plaintext initiator answered with
// a Retry re-sends its Connect carrying the token, and retransmits that
// Connect's payload byte for byte (the header's timestamps move).
func TestPlaintextRetryRepinsConnect(t *testing.T) {
	initiator := NewConn(Config{Initiator: true, Profile: core.ClassicTFRC(), ConnID: 0x5151})
	initiator.Start(0)
	payload := func(now time.Duration) []byte {
		t.Helper()
		frame, ok := initiator.PollFrame(now)
		if !ok {
			t.Fatalf("no connect at %v", now)
		}
		var hdr packet.Header
		p, err := hdr.Parse(frame)
		if err != nil || hdr.Type != packet.TypeConnect {
			t.Fatalf("want a connect: %v %v", hdr.Type, err)
		}
		return p
	}
	first := payload(0)

	token := []byte("prove-your-address")
	retry := packet.Retry{Token: token}
	rp, err := retry.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rh := packet.Header{Type: packet.TypeRetry, ConnID: initiator.LocalID(), PayloadLen: uint16(len(rp))}
	if err := initiator.HandleFrame(0, append(rh.AppendTo(nil), rp...)); err != nil {
		t.Fatal(err)
	}
	second := payload(0)
	var hs packet.Handshake
	if err := hs.Parse(second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hs.Token, token) {
		t.Fatalf("retried connect carries token %q, want %q (first connect %x)", hs.Token, token, first)
	}
	next, ok := initiator.NextWake(0)
	if !ok || next == 0 {
		t.Fatal("no retransmission scheduled")
	}
	if again := payload(next); !bytes.Equal(again, second) {
		t.Fatalf("retransmitted connect payload %x, want %x", again, second)
	}
}

// TestCtrlBackoffSchedule pins the control retransmission schedule:
// exponential doubling from ctrlRetryBase capped at ctrlRetryCap, each
// interval within ±25% jitter of its nominal value, deterministic for a
// given connection ID, and a total span close to the old fixed cadence
// so give-up timing is preserved.
func TestCtrlBackoffSchedule(t *testing.T) {
	initiator := NewConn(Config{Initiator: true, Profile: core.ClassicTFRC(), ConnID: 0x5151})
	initiator.Start(0)

	// Drive the state machine by its own clock, blackholing every frame,
	// and record the send instants.
	var sends []time.Duration
	now := time.Duration(0)
	for i := 0; i < 2*ctrlMaxTries; i++ {
		if _, ok := initiator.PollFrame(now); !ok {
			break
		}
		sends = append(sends, now)
		next, ok := initiator.NextWake(now)
		if !ok {
			break
		}
		now = next
	}
	if len(sends) != ctrlMaxTries {
		t.Fatalf("sent %d connects, want %d", len(sends), ctrlMaxTries)
	}
	if initiator.State() != StateClosed {
		t.Fatalf("state after exhausting retries = %v, want closed", initiator.State())
	}

	nominal := func(try int) time.Duration {
		d := ctrlRetryBase << uint(try)
		if d > ctrlRetryCap {
			d = ctrlRetryCap
		}
		return d
	}
	var total time.Duration
	for i := 1; i < len(sends); i++ {
		gap := sends[i] - sends[i-1]
		want := nominal(i - 1)
		lo := want - want/4
		hi := want + want/4
		if gap < lo || gap > hi {
			t.Fatalf("interval %d = %v, want within ±25%% of %v", i, gap, want)
		}
		if i > 1 && gap < sends[i-1]-sends[i-2]-want/2 {
			t.Fatalf("interval %d = %v shrank below its predecessor's band", i, gap)
		}
		total += gap
	}
	// Old schedule waited 7 × 1s between 8 sends; the backoff's nominal
	// total is 7.8s. Allow the jitter band around that.
	if total < 5*time.Second || total > 11*time.Second {
		t.Fatalf("total backoff span %v, want ≈7.8s (old 7s cadence preserved)", total)
	}

	// Determinism: a second connection with the same ID sees the same
	// jittered schedule.
	again := NewConn(Config{Initiator: true, Profile: core.ClassicTFRC(), ConnID: 0x5151})
	again.Start(0)
	now = 0
	for i := 0; i < len(sends); i++ {
		if _, ok := again.PollFrame(now); !ok {
			t.Fatalf("replay stopped at send %d", i)
		}
		if now != sends[i] {
			t.Fatalf("replay send %d at %v, first run at %v (jitter not deterministic)", i, now, sends[i])
		}
		next, ok := again.NextWake(now)
		if !ok {
			break
		}
		now = next
	}
}
