package qtp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/workload"
)

// testPath is a symmetric two-way path with the given forward-direction
// characteristics; the reverse (feedback) direction is a clean 1 Gb/s
// link with the same delay.
type testPath struct {
	sim      *netsim.Sim
	fwd, rev *netsim.Link
	toRecv   *netsim.Indirect
	toSend   *netsim.Indirect
}

func newTestPath(seed int64, rate float64, delay time.Duration, queue netsim.Queue, loss netsim.LossModel) *testPath {
	sim := netsim.New(seed)
	p := &testPath{sim: sim, toRecv: &netsim.Indirect{}, toSend: &netsim.Indirect{}}
	p.fwd = netsim.NewLink(sim, netsim.LinkConfig{
		Name: "fwd", Rate: rate, Delay: delay, Queue: queue, Loss: loss, Dst: p.toRecv,
	})
	p.rev = netsim.NewLink(sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: delay, Queue: &netsim.DropTail{}, Dst: p.toSend,
	})
	return p
}

func (p *testPath) attach(f *Flow) {
	p.toRecv.Target = f.ReceiverEntry()
	p.toSend.Target = f.SenderEntry()
}

// startFlow builds a flow over the path with common defaults.
func (p *testPath) startFlow(cfg FlowConfig) *Flow {
	cfg.ID = 1
	cfg.Fwd = p.fwd
	cfg.Rev = p.rev
	f := StartFlow(p.sim, cfg)
	p.attach(f)
	return f
}

func TestHandshakeAndTransferCompletes(t *testing.T) {
	p := newTestPath(1, 125_000, 10*time.Millisecond, netsim.NewDropTail(64), nil)
	const total = 200_000
	f := p.startFlow(FlowConfig{
		Profile:     core.QTPAF(50_000),
		Handshake:   true,
		Constraints: core.Permissive(1e6),
		Source:      workload.NewBulk(total, 10_000),
	})
	p.sim.Run(60 * time.Second)

	if f.Sender.State() != StateClosed && f.Sender.State() != StateClosing {
		t.Fatalf("sender state = %v", f.Sender.State())
	}
	if !f.Receiver.Finished() {
		t.Fatal("receiver did not finish the stream")
	}
	if f.DeliveredBytes != total {
		t.Fatalf("delivered %d bytes, want %d", f.DeliveredBytes, total)
	}
	// Negotiation: receiver granted the QoS rate within constraints.
	if got := f.Receiver.Profile().TargetRate; got != 50_000 {
		t.Fatalf("negotiated g = %v, want 50000", got)
	}
	if f.Sender.Profile().TargetRate != 50_000 {
		t.Fatal("sender did not adopt the granted profile")
	}
}

func TestNegotiationCapsTarget(t *testing.T) {
	p := newTestPath(2, 1e6, 5*time.Millisecond, netsim.NewDropTail(64), nil)
	f := p.startFlow(FlowConfig{
		Profile:     core.QTPAF(800_000),
		Handshake:   true,
		Constraints: core.Permissive(100_000), // server only grants 100 kB/s
		Source:      workload.NewBulk(50_000, 10_000),
	})
	p.sim.Run(30 * time.Second)
	if got := f.Sender.Profile().TargetRate; got != 100_000 {
		t.Fatalf("sender target = %v, want capped 100000", got)
	}
	if !f.Receiver.Finished() {
		t.Fatal("transfer did not complete")
	}
}

func TestFullReliabilityUnderLoss(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			p := newTestPath(3, 125_000, 20*time.Millisecond, &netsim.DropTail{},
				netsim.Bernoulli{P: 0.05})
			const total = 150_000
			f := p.startFlow(FlowConfig{
				Profile: framed(core.Profile{
					Reliability: packet.ReliabilityFull,
					Feedback:    packet.FeedbackReceiverLoss,
					MSS:         1000,
				}, fr.streams),
				RTTHint: 40 * time.Millisecond,
				Source:  workload.NewBulk(total, 10_000),
			})
			p.sim.Run(120 * time.Second)
			checkFraming(t, f.Sender, fr.streams)
			if f.DeliveredBytes != total {
				t.Fatalf("delivered %d, want %d (full reliability)", f.DeliveredBytes, total)
			}
			if !f.Receiver.Finished() {
				t.Fatal("stream did not finish")
			}
			if f.Sender.Stats().RetransFrames == 0 {
				t.Fatal("5% loss but no retransmissions — reliability path untested")
			}
		})
	}
}

func TestQTPLightFullReliabilityUnderLoss(t *testing.T) {
	p := newTestPath(4, 125_000, 20*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.05})
	const total = 150_000
	f := p.startFlow(FlowConfig{
		Profile: core.QTPLightReliable(0),
		RTTHint: 40 * time.Millisecond,
		Source:  workload.NewBulk(total, 10_000),
	})
	p.sim.Run(120 * time.Second)
	if f.DeliveredBytes != total {
		t.Fatalf("delivered %d, want %d", f.DeliveredBytes, total)
	}
	// The sender-side estimator must have seen the loss.
	if f.Sender.LossRate() <= 0 {
		t.Fatal("QTPlight sender estimator never seeded")
	}
	// No classic feedback frames should exist, only SACKs.
	if f.Receiver.Stats().FeedbackFrames != 0 {
		t.Fatal("QTPlight receiver sent classic feedback")
	}
	if f.Receiver.Stats().SACKFrames == 0 {
		t.Fatal("QTPlight receiver sent no SACKs")
	}
}

func TestPartialReliabilityDeliversOnTimeSubset(t *testing.T) {
	p := newTestPath(5, 125_000, 20*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.08})
	f := p.startFlow(FlowConfig{
		Profile: core.Profile{
			Reliability: packet.ReliabilityPartial,
			Deadline:    150 * time.Millisecond,
			Feedback:    packet.FeedbackSenderLoss,
			MSS:         1000,
		},
		RTTHint: 40 * time.Millisecond,
		Source:  workload.NewCBR(40_000, 1000, 20*time.Second),
	})
	p.sim.Run(60 * time.Second)
	sent := f.Sender.Stats().DataBytesSent
	if f.DeliveredBytes == 0 {
		t.Fatal("nothing delivered")
	}
	ratio := float64(f.DeliveredBytes) / float64(sent)
	if ratio < 0.80 {
		t.Fatalf("delivery ratio %v too low — partial reliability broken", ratio)
	}
	// The stream keeps moving: the receiver's reassembler must not stall
	// on abandoned segments.
	if n := f.Receiver.recvByID[0].Buffered(); n > 100 {
		t.Fatalf("reassembler stalled with %d buffered segments", n)
	}
}

func TestUnreliableStreamSkipsHoles(t *testing.T) {
	p := newTestPath(6, 125_000, 10*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.05})
	f := p.startFlow(FlowConfig{
		Profile: core.QTPLight(),
		RTTHint: 20 * time.Millisecond,
		Source:  workload.NewCBR(50_000, 1000, 10*time.Second),
	})
	p.sim.Run(30 * time.Second)
	sent := f.Sender.Stats().DataBytesSent
	if f.Sender.Stats().RetransFrames != 0 {
		t.Fatal("unreliable flow retransmitted")
	}
	// Roughly (1-p) of the data should be delivered despite the holes.
	ratio := float64(f.DeliveredBytes) / float64(sent)
	if ratio < 0.85 || ratio > 1.0 {
		t.Fatalf("delivery ratio = %v, want ~0.95", ratio)
	}
}

func TestGTFRCHoldsTargetUnderLoss(t *testing.T) {
	// 1 Mb/s path with significant loss: plain TFRC would collapse, the
	// gTFRC flow must keep sending at >= g.
	p := newTestPath(7, 125_000, 20*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.03})
	f := p.startFlow(FlowConfig{
		Profile: core.QTPAF(60_000),
		RTTHint: 40 * time.Millisecond,
		Bulk:    true,
	})
	p.sim.Run(30 * time.Second)
	if rate := f.Sender.Rate(); rate < 60_000 {
		t.Fatalf("gTFRC rate %v below target 60000", rate)
	}
	// And the delivered goodput is near g despite the loss: g*(1-p).
	good := float64(f.DeliveredBytes) / 30.0
	if good < 50_000 {
		t.Fatalf("goodput %v, want >= ~g(1-p)", good)
	}
}

func TestRateAdaptsToBottleneck(t *testing.T) {
	// Classic TFRC over a 40 kB/s bottleneck with a small queue: the
	// long-run send rate must settle near the bottleneck, not above.
	p := newTestPath(8, 40_000, 30*time.Millisecond, netsim.NewDropTail(20), nil)
	f := p.startFlow(FlowConfig{
		Profile: core.ClassicTFRC(),
		RTTHint: 60 * time.Millisecond,
		Bulk:    true,
	})
	p.sim.Run(60 * time.Second)
	good := float64(f.DeliveredBytes) / 60.0
	if good < 20_000 || good > 44_000 {
		t.Fatalf("goodput %v, want near bottleneck 40000", good)
	}
	// Loss must have been detected (queue overflow drives the control).
	if f.Sender.LossRate() <= 0 {
		t.Fatal("no congestion signal over a saturated bottleneck")
	}
}

func TestRTTEstimateConverges(t *testing.T) {
	p := newTestPath(9, 125_000, 25*time.Millisecond, netsim.NewDropTail(64), nil)
	f := p.startFlow(FlowConfig{
		Profile: core.ClassicTFRC(),
		RTTHint: 50 * time.Millisecond,
		Bulk:    true,
	})
	p.sim.Run(20 * time.Second)
	rtt := f.Sender.RTT()
	// Propagation is 50 ms round trip; a saturated 64-packet DropTail
	// queue at 125 kB/s can add up to ~730 ms of queueing delay.
	if rtt < 45*time.Millisecond || rtt > 900*time.Millisecond {
		t.Fatalf("rtt = %v, want 50ms..900ms (propagation+queueing)", rtt)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, Stats) {
		p := newTestPath(42, 100_000, 15*time.Millisecond, netsim.NewDropTail(30),
			netsim.Bernoulli{P: 0.02})
		f := p.startFlow(FlowConfig{
			Profile: core.QTPLightReliable(0),
			RTTHint: 30 * time.Millisecond,
			Bulk:    true,
		})
		p.sim.Run(20 * time.Second)
		return f.DeliveredBytes, f.Sender.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("non-deterministic: %d/%+v vs %d/%+v", d1, s1, d2, s2)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newTestPath(14, 125_000, 10*time.Millisecond, netsim.NewDropTail(64), nil)
	f := p.startFlow(FlowConfig{
		Profile: core.ClassicTFRC(),
		RTTHint: 20 * time.Millisecond,
		Source:  workload.NewBulk(50_000, 5_000),
	})
	p.sim.Run(30 * time.Second)
	st := f.Sender.Stats()
	if st.DataBytesSent != 50_000 {
		t.Fatalf("DataBytesSent = %d", st.DataBytesSent)
	}
	rst := f.Receiver.Stats()
	if rst.FramesReceived == 0 || rst.FeedbackFrames == 0 {
		t.Fatalf("receiver stats empty: %+v", rst)
	}
}

func TestWriteBackpressure(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			prof := framed(core.ClassicTFRC(), fr.streams)
			c := NewConn(Config{Initiator: true, Profile: prof, ConnID: 1})
			c.StartDirect(0, prof, 10*time.Millisecond)
			checkFraming(t, c, fr.streams)
			n := c.Write(make([]byte, maxBacklog+500))
			if n != maxBacklog {
				t.Fatalf("accepted %d, want %d (cap)", n, maxBacklog)
			}
			if c.Write([]byte{1}) != 0 {
				t.Fatal("accepted past the cap")
			}
		})
	}
}

func TestHandleFrameRejectsGarbage(t *testing.T) {
	c := NewConn(Config{Initiator: true, Profile: core.ClassicTFRC(), ConnID: 1})
	c.StartDirect(0, core.ClassicTFRC(), 0)
	if err := c.HandleFrame(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong connection ID.
	hdr := packet.Header{Type: packet.TypeData, ConnID: 99}
	if err := c.HandleFrame(0, hdr.AppendTo(nil)); err == nil {
		t.Fatal("foreign conn id accepted")
	}
	if c.Stats().DecodeErrors != 2 {
		t.Fatalf("DecodeErrors = %d", c.Stats().DecodeErrors)
	}
	// Receive-half frames reaching a sender are refused, whatever the
	// framing (they used to crash a sender that negotiated streams).
	for _, prof := range []core.Profile{core.ClassicTFRC(), multiProfile()} {
		snd := NewConn(Config{Initiator: true, Profile: prof, ConnID: 1})
		snd.StartDirect(0, prof, 0)
		rcv := NewConn(Config{ConnID: 1})
		rcv.StartDirect(0, prof, 0)
		snd.Write([]byte("x"))
		data, ok := snd.PollFrame(0)
		if !ok {
			t.Fatal("no data frame")
		}
		if err := rcv.HandleFrame(0, data); err != nil {
			t.Fatalf("receiver refused the data frame: %v", err)
		}
		if err := snd.HandleFrame(0, data); err != ErrBadState {
			t.Fatalf("sender handling a data frame: err = %v, want ErrBadState", err)
		}
		reset := packet.Header{Type: packet.TypeStreamReset, ConnID: 1}
		if err := snd.HandleFrame(0, reset.AppendTo(nil)); err != ErrBadState {
			t.Fatalf("sender handling a stream reset: err = %v, want ErrBadState", err)
		}
	}
}

// TestLightSenderRefusesReceiverReports is the selfish-receiver attack
// QTPlight closes (Georg & Gorinsky, experiment E6): a receiver that
// forges classic reports claiming a huge X_recv and no loss. A classic
// sender takes its word for the rate; a QTPlight sender estimates X_recv
// and p from what is acknowledged, and a BBR sender reads ack vectors
// only, so both refuse the report and keep their rate. The converse
// holds too: a sender that takes receiver reports refuses a bare ack
// vector claiming everything arrived.
func TestLightSenderRefusesReceiverReports(t *testing.T) {
	frame := func(now time.Duration, typ packet.Type, payload []byte) []byte {
		hdr := packet.Header{Type: typ, ConnID: 1, Timestamp: nowUS(now), PayloadLen: uint16(len(payload))}
		return append(hdr.AppendTo(nil), payload...)
	}
	report := func(now time.Duration) []byte {
		payload, _ := (&packet.Feedback{XRecv: 1e9, LossRate: 0}).AppendTo(nil)
		return frame(now, packet.TypeFeedback, payload)
	}
	vector := func(now time.Duration) []byte {
		payload, _ := (&packet.SACK{CumAck: 1 << 20}).AppendTo(nil)
		return frame(now, packet.TypeSACK, payload)
	}
	for _, tc := range []struct {
		name    string
		profile core.Profile
		forged  func(time.Duration) []byte
		want    error
	}{
		{"classic", core.ClassicTFRC(), report, nil},
		{"light", core.QTPLightReliable(0), report, ErrBadState},
		{"bbr", classicBBR(), report, ErrBadState},
		{"vector-to-classic", core.ClassicTFRC(), vector, ErrBadState},
		{"vector-to-qtpaf", core.QTPAF(100_000), vector, ErrBadState},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(Config{Initiator: true, Profile: tc.profile, ConnID: 1})
			c.StartDirect(0, tc.profile, 50*time.Millisecond)
			rate := c.Rate()
			for i := 1; i <= 20; i++ {
				now := time.Duration(i) * 50 * time.Millisecond
				if err := c.HandleFrame(now, tc.forged(now)); err != tc.want {
					t.Fatalf("forged frame %d: err = %v, want %v", i, err, tc.want)
				}
			}
			if raised := c.Rate() > rate; raised != (tc.want == nil) {
				t.Fatalf("20 forged frames took the rate from %v to %v", rate, c.Rate())
			}
		})
	}
}

// TestStreamResetAnsweredAtOnce: a receiver handed a StreamReset owes
// the sender its acknowledgment on the very next poll, in its mode's
// encoding — the sender keeps retrying the forward FIN until it sees the
// stream's cum cross it.
func TestStreamResetAnsweredAtOnce(t *testing.T) {
	light := core.QTPLightReliable(0)
	light.MaxStreams = 8
	for _, tc := range []struct {
		name    string
		profile core.Profile
		want    packet.Type
	}{
		{"classic", multiProfile(), packet.TypeFeedback},
		{"light", light, packet.TypeSACK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rcv := NewConn(Config{ConnID: 1})
			rcv.StartDirect(0, tc.profile, 0)
			sr := packet.StreamReset{ID: 1, Mode: packet.StreamExpiring, FinSeq: 5, DeadlineMS: 100}
			payload := sr.AppendTo(nil)
			hdr := packet.Header{Type: packet.TypeStreamReset, ConnID: 1, PayloadLen: uint16(len(payload))}
			now := 10 * time.Millisecond
			if err := rcv.HandleFrame(now, append(hdr.AppendTo(nil), payload...)); err != nil {
				t.Fatalf("stream reset: %v", err)
			}
			if got := rcv.Stats().StreamResetsRcvd; got != 1 {
				t.Fatalf("StreamResetsRcvd = %d, want 1", got)
			}
			if at, ok := rcv.NextWake(now); !ok || at != now {
				t.Fatalf("NextWake = %v, %v; want the answer due at once (%v)", at, ok, now)
			}
			f, ok := rcv.PollFrame(now)
			if !ok {
				t.Fatal("no acknowledgment on the poll after the reset")
			}
			var got packet.Header
			if _, err := got.Parse(f); err != nil {
				t.Fatal(err)
			}
			if got.Type != tc.want {
				t.Fatalf("answered with %v, want %v", got.Type, tc.want)
			}
			if _, ok := rcv.PollFrame(now); ok {
				t.Fatal("a second frame after the one owed acknowledgment")
			}
		})
	}
}

// TestLateCloseSendEmitsBareFIN is the regression for the stream-0
// close stall: when CloseSend lands only after the backlog has fully
// drained, the last data segment already left the wire without the FIN
// flag, so the close must travel as an empty FIN segment of its own.
// Before the fix the sender had no way to produce it — both endpoints
// blocked forever with every byte delivered.
func TestLateCloseSendEmitsBareFIN(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			p := newTestPath(31, 250_000, 10*time.Millisecond, netsim.NewDropTail(64), nil)
			const total = 20_000
			f := p.startFlow(FlowConfig{
				Profile: framed(core.QTPAF(100_000), fr.streams),
				RTTHint: 20 * time.Millisecond,
			})
			p.sim.At(10*time.Millisecond, func() {
				f.Sender.Write(make([]byte, total))
				f.Pump()
			})
			// Five seconds in, the transfer has long finished draining;
			// only now does the application close its end.
			p.sim.At(5*time.Second, func() {
				if n := f.Sender.BacklogLen(); n != 0 {
					t.Fatalf("backlog still holds %d bytes; the test needs a fully drained sender", n)
				}
				f.CloseSend()
			})
			p.sim.Run(30 * time.Second)

			checkFraming(t, f.Sender, fr.streams)
			if f.DeliveredBytes != total {
				t.Fatalf("delivered %d bytes, want %d", f.DeliveredBytes, total)
			}
			if !f.Receiver.Finished() {
				t.Fatal("receiver never saw the stream end: bare FIN not emitted or not delivered")
			}
			if st := f.Sender.State(); st != StateClosed && st != StateClosing {
				t.Fatalf("sender state = %v, want closing/closed", st)
			}
		})
	}
}

// TestPartialReliabilityKeepsWhatArrivedAtClose: an unprefixed,
// partially reliable or unreliable connection must not drop, when it
// closes, data its receiver acknowledged. A 300 kB write into a 250 kB/s
// bottleneck with a 16-packet queue loses segments for good (abandoned
// at a partially reliable sender, never resent by an unreliable one),
// and the close finds the receiver holding arrivals behind holes that
// will never fill. The Close applies the forward FIN a StreamReset
// applies on a prefixed connection; without it the receiver delivered
// 98,000 of the 277,600 bytes that arrived (light) and 103,600 of
// 274,800 (classic), and without it on unreliable connections 91,000
// of 265,000 (none-light) and 93,800 of 269,200 (none-classic). The
// path has no random loss, so one seed says everything.
func TestPartialReliabilityKeepsWhatArrivedAtClose(t *testing.T) {
	classic := core.QTPLightReliable(200 * time.Millisecond)
	classic.Feedback = packet.FeedbackReceiverLoss
	for _, tc := range []struct {
		name    string
		profile core.Profile
	}{
		{"light", core.QTPLightReliable(200 * time.Millisecond)},
		{"classic", classic},
		{"none-light", core.QTPLight()},
		{"none-classic", core.ClassicTFRC()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPath(1, 250_000, 15*time.Millisecond, netsim.NewDropTail(16), nil)
			f := p.startFlow(FlowConfig{
				Profile: tc.profile,
				RTTHint: 30 * time.Millisecond,
				Source:  workload.NewBulk(300_000, 300_000),
			})
			arrived := map[seqspace.Seq]int{} // stream-0 sequence number -> payload bytes
			recv := p.toRecv.Target
			p.toRecv.Target = netsim.HandlerFunc(func(pk *netsim.Packet) {
				var hdr packet.Header
				payload, err := hdr.Parse(pk.Payload.([]byte))
				if err == nil && hdr.Type == packet.TypeData && f.Receiver.State() != StateClosed {
					arrived[hdr.Seq] = len(payload)
				}
				recv.Recv(pk)
			})
			p.sim.Run(30 * time.Second)
			if f.Receiver.State() != StateClosed {
				t.Fatalf("receiver still %v", f.Receiver.State())
			}
			sum := 0
			for _, n := range arrived {
				sum += n
			}
			st, _ := f.Sender.StreamStats(0)
			t.Logf("%d segments arrived (%d B), %d B delivered, %d abandoned at the sender",
				len(arrived), sum, f.DeliveredBytes, st.AbandonedSegs)
			if tc.profile.Reliability == packet.ReliabilityNone {
				// Nothing is abandoned without a scoreboard: a segment that
				// never arrived is the hole.
				if len(arrived) >= st.DataFramesSent {
					t.Fatal("every segment arrived: the run does not reach the case")
				}
			} else if st.AbandonedSegs == 0 {
				t.Fatal("nothing abandoned: the run does not reach the case")
			}
			if f.DeliveredBytes != sum {
				t.Errorf("delivered %d B of the %d B that arrived", f.DeliveredBytes, sum)
			}
		})
	}
}

// TestNoSpuriousRetransmissions: on a path whose only losses are queue
// drops, every composition retransmits a segment only after its previous
// copy was lost, so the receiver never sees a segment twice. Before the
// ordering rule in the scoreboard, the TFRC family re-declared its own
// retransmissions lost on acks sent before they could arrive.
func TestNoSpuriousRetransmissions(t *testing.T) {
	for _, queue := range []int{64, 16} {
		for _, tc := range []struct {
			name    string
			profile core.Profile
		}{
			{"light", core.QTPLightReliable(0)},
			{"qtpaf", core.QTPAF(125_000)},
			{"light-partial", core.QTPLightReliable(200 * time.Millisecond)},
			{"bbr", bbrProfile()},
		} {
			t.Run(fmt.Sprintf("droptail%d/%s", queue, tc.name), func(t *testing.T) {
				p := newTestPath(1, 250_000, 15*time.Millisecond, netsim.NewDropTail(queue), nil)
				f := p.startFlow(FlowConfig{
					Profile: tc.profile,
					RTTHint: 30 * time.Millisecond,
					Source:  workload.NewBulk(300_000, 300_000),
				})
				p.sim.Run(30 * time.Second)
				sent, _ := f.Sender.StreamStats(0)
				got, _ := f.Receiver.StreamStats(0)
				t.Logf("%d retransmissions, %d duplicates at the receiver, %d B delivered",
					sent.RetransFrames, got.DuplicateSegs, f.DeliveredBytes)
				if got.DuplicateSegs != 0 {
					t.Errorf("receiver saw %d duplicate segments", got.DuplicateSegs)
				}
				if tc.profile.Reliability == packet.ReliabilityFull && f.DeliveredBytes != 300_000 {
					t.Errorf("delivered %d B of 300000", f.DeliveredBytes)
				}
			})
		}
	}
}
