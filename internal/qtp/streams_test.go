package qtp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/workload"
)

// multiProfile is a gTFRC-backed multi-stream composition: the QoS
// floor keeps the rate up under heavy simulated loss so stream tests
// finish quickly.
func multiProfile() core.Profile {
	return core.Profile{
		Reliability: packet.ReliabilityFull,
		Feedback:    packet.FeedbackReceiverLoss,
		TargetRate:  80_000,
		MSS:         1000,
		MaxStreams:  8,
	}
}

// TestMixedModeStreamsUnderLoss is the acceptance scenario: one
// connection concurrently runs a reliable-ordered and an expiring
// stream across a 30% lossy path. The reliable stream must deliver
// every byte; the expiring stream must drop exactly its stale segments
// (skipped at the receiver, abandoned at the sender) without either
// stream blocking the other.
func TestMixedModeStreamsUnderLoss(t *testing.T) {
	p := newTestPath(21, 250_000, 20*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.30})
	f := p.startFlow(FlowConfig{
		Profile: multiProfile(),
		RTTHint: 40 * time.Millisecond,
	})

	const (
		relTotal  = 120_000
		expChunk  = 1000
		expChunks = 100
	)
	var expStream uint64
	p.sim.At(10*time.Millisecond, func() {
		id, err := f.Sender.OpenStream(packet.StreamExpiring, 150*time.Millisecond)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		expStream = id
		// Bulk data on the reliable stream 0.
		f.Sender.WriteStream(0, make([]byte, relTotal))
		f.Pump()
	})
	// A paced media feed on the expiring stream: one chunk per 20 ms.
	for i := 0; i < expChunks; i++ {
		i := i
		p.sim.At(time.Duration(20+20*i)*time.Millisecond, func() {
			f.Sender.WriteStream(expStream, make([]byte, expChunk))
			if i == expChunks-1 {
				f.Sender.CloseStream(expStream)
				f.Sender.CloseStream(0)
			}
			f.Pump()
		})
	}
	p.sim.Run(120 * time.Second)

	// The reliable stream delivered every byte, in order, nothing skipped.
	if got := f.StreamDelivered[0]; got != relTotal {
		t.Fatalf("reliable stream delivered %d bytes, want %d", got, relTotal)
	}
	rs0, ok := f.Receiver.StreamStats(0)
	if !ok {
		t.Fatal("receiver has no stream 0 stats")
	}
	if rs0.SkippedSegs != 0 {
		t.Fatalf("reliable stream skipped %d segments", rs0.SkippedSegs)
	}
	if rs0.DeliveredBytes != relTotal {
		t.Fatalf("reliable stream stats delivered %d, want %d", rs0.DeliveredBytes, relTotal)
	}
	ss0, _ := f.Sender.StreamStats(0)
	if ss0.RetransFrames == 0 {
		t.Fatal("30% loss but the reliable stream never retransmitted")
	}
	if ss0.AbandonedSegs != 0 {
		t.Fatalf("reliable stream abandoned %d segments", ss0.AbandonedSegs)
	}

	// The expiring stream delivered most data, dropped only stale
	// segments, and kept moving (skip-ahead at the receiver, deadline
	// abandonment at the sender).
	expDelivered := f.StreamDelivered[expStream]
	expSent := expChunk * expChunks
	if expDelivered == 0 {
		t.Fatal("expiring stream delivered nothing")
	}
	if expDelivered >= expSent {
		t.Fatalf("expiring stream delivered %d of %d — nothing expired under 30%% loss?", expDelivered, expSent)
	}
	rsE, ok := f.Receiver.StreamStats(expStream)
	if !ok {
		t.Fatal("receiver has no expiring stream stats")
	}
	if rsE.SkippedSegs == 0 {
		t.Fatal("expiring stream never skipped a stale hole")
	}
	ssE, _ := f.Sender.StreamStats(expStream)
	if ssE.AbandonedSegs == 0 {
		t.Fatal("expiring sender never abandoned a stale segment")
	}
	// Conservation: every expiring segment was delivered or skipped,
	// modulo a lost tail (segments behind the last delivery are never
	// "skipped past" — there is nothing to skip to).
	accounted := rsE.DeliveredBytes + rsE.SkippedSegs*expChunk
	if accounted > expSent {
		t.Fatalf("expiring accounting: delivered %d + skipped %d segs > sent %d",
			rsE.DeliveredBytes, rsE.SkippedSegs, expSent)
	}
	if accounted < expSent*9/10 {
		t.Fatalf("expiring accounting: delivered %d + skipped %d segs way below sent %d",
			rsE.DeliveredBytes, rsE.SkippedSegs, expSent)
	}
	// Neither stream blocked the other: both streams finished and the
	// connection closed cleanly.
	if !f.Receiver.Finished() {
		t.Fatal("receiver did not finish both streams")
	}
	if st := f.Sender.State(); st != StateClosed && st != StateClosing {
		t.Fatalf("sender state = %v, want closing/closed", st)
	}
}

// TestUnorderedStreamDeliversEverythingUnderLoss runs a reliable-
// unordered stream beside the ordered stream 0 under loss: both must
// deliver 100%, the unordered one without ever waiting for a hole.
func TestUnorderedStreamDeliversEverythingUnderLoss(t *testing.T) {
	p := newTestPath(22, 250_000, 20*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.15})
	f := p.startFlow(FlowConfig{
		Profile: multiProfile(),
		RTTHint: 40 * time.Millisecond,
	})
	const total = 80_000
	var unord uint64
	firstDeliveryAt := map[uint64]time.Duration{}
	f.StreamDeliveredAt = func(now time.Duration, id uint64, n int) {
		if _, ok := firstDeliveryAt[id]; !ok {
			firstDeliveryAt[id] = now
		}
	}
	p.sim.At(10*time.Millisecond, func() {
		id, err := f.Sender.OpenStream(packet.StreamReliableUnordered, 0)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		unord = id
		f.Sender.WriteStream(0, make([]byte, total))
		f.Sender.WriteStream(unord, make([]byte, total))
		f.Sender.CloseStream(0)
		f.Sender.CloseStream(unord)
		f.Pump()
	})
	p.sim.Run(120 * time.Second)

	if got := f.StreamDelivered[0]; got != total {
		t.Fatalf("ordered stream delivered %d, want %d", got, total)
	}
	if got := f.StreamDelivered[unord]; got != total {
		t.Fatalf("unordered stream delivered %d, want %d", got, total)
	}
	rs, _ := f.Receiver.StreamStats(unord)
	if rs.Mode != packet.StreamReliableUnordered {
		t.Fatalf("receiver stream mode = %v", rs.Mode)
	}
	if !f.Receiver.Finished() {
		t.Fatal("streams did not finish")
	}
}

// TestStreamOffsetWraparound drives a multi-stream transfer whose
// per-stream sequence spaces start just below the 32-bit wrap (and the
// connection space at a different point), under loss, so wrap-crossing
// retransmissions, SACK ranges and per-stream cumacks are all
// exercised end to end.
func TestStreamOffsetWraparound(t *testing.T) {
	sim := netsim.New(23)
	toRecv, toSend := &netsim.Indirect{}, &netsim.Indirect{}
	fwd := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "fwd", Rate: 250_000, Delay: 10 * time.Millisecond,
		Queue: &netsim.DropTail{}, Loss: netsim.Bernoulli{P: 0.10}, Dst: toRecv,
	})
	rev := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: 10 * time.Millisecond,
		Queue: &netsim.DropTail{}, Dst: toSend,
	})
	prof := multiProfile()
	// Both sequence spaces wrap a handful of segments into the run.
	connStart := seqspace.Seq(0xfffffffa)
	streamStart := seqspace.Seq(0xfffffff0)
	sender := NewConn(Config{
		Initiator: true, Profile: prof, ConnID: 1,
		startSeq: connStart, streamStartSeq: streamStart,
	})
	receiver := NewConn(Config{
		Initiator: false, ConnID: 1,
		startSeq: connStart, streamStartSeq: streamStart,
	})
	f := &Flow{sim: sim, Sender: sender, Receiver: receiver,
		cfg: FlowConfig{ID: 1, Fwd: fwd, Rev: rev}}
	toRecv.Target = f.ReceiverEntry()
	toSend.Target = f.SenderEntry()

	const total = 60_000
	sim.At(0, func() {
		now := sim.Now()
		p := prof.Normalize()
		sender.StartDirect(now, p, 20*time.Millisecond)
		receiver.StartDirect(now, p, 0)
		id, err := sender.OpenStream(packet.StreamReliableUnordered, 0)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		sender.WriteStream(0, make([]byte, total))
		sender.WriteStream(id, make([]byte, total/2))
		sender.CloseStream(0)
		sender.CloseStream(id)
		f.Pump()
	})
	sim.Run(120 * time.Second)

	if got := f.StreamDelivered[0]; got != total {
		t.Fatalf("stream 0 delivered %d across the wrap, want %d", got, total)
	}
	if got := f.StreamDelivered[1]; got != total/2 {
		t.Fatalf("stream 1 delivered %d across the wrap, want %d", got, total/2)
	}
	if !f.Receiver.Finished() {
		t.Fatal("wrap-crossing streams did not finish")
	}
	if st, _ := f.Sender.StreamStats(0); st.RetransFrames == 0 {
		t.Fatal("loss but no retransmissions — wrap path untested")
	}
}

// TestMultiStreamNegotiation checks the capability handshake: granted
// when both sides allow it, refused down to the legacy single-stream
// layout by an old-style responder, with single-stream transfers
// working identically either way.
func TestMultiStreamNegotiation(t *testing.T) {
	run := func(cons core.Constraints, wantStreams int) *Flow {
		p := newTestPath(24, 125_000, 10*time.Millisecond, netsim.NewDropTail(64), nil)
		prof := multiProfile()
		prof.TargetRate = 50_000
		f := p.startFlow(FlowConfig{
			Profile:     prof,
			Handshake:   true,
			Constraints: cons,
			Source:      workload.NewBulk(50_000, 10_000),
		})
		// Mid-transfer, opening a stream must succeed exactly when the
		// capability was granted.
		p.sim.At(100*time.Millisecond, func() {
			_, err := f.Sender.OpenStream(packet.StreamReliableOrdered, 0)
			if wantStreams >= 2 && err != nil {
				t.Fatalf("OpenStream on granted connection: %v", err)
			}
			if wantStreams < 2 && err == nil {
				t.Fatal("OpenStream succeeded on a legacy connection")
			}
		})
		p.sim.Run(60 * time.Second)
		if got := f.Sender.Profile().MaxStreams; got != wantStreams {
			t.Fatalf("negotiated MaxStreams = %d, want %d", got, wantStreams)
		}
		if f.Sender.MultiStream() != (wantStreams >= 2) {
			t.Fatalf("sender multi = %v with %d streams", f.Sender.MultiStream(), wantStreams)
		}
		if f.DeliveredBytes != 50_000 {
			t.Fatalf("delivered %d bytes, want 50000", f.DeliveredBytes)
		}
		if !f.Receiver.Finished() {
			t.Fatal("transfer did not finish")
		}
		return f
	}

	// Permissive responder: capability granted at the proposed width.
	run(core.Permissive(1e6), 8)

	// Responder without the capability: legacy layout, OpenStream fails.
	legacy := core.Permissive(1e6)
	legacy.MaxStreams = 0
	run(legacy, 0)
}

// TestStreamRetirement pins that MaxStreams caps *concurrent* streams:
// a long-lived connection opening and closing short streams
// sequentially can use many more streams than the cap, finished
// streams drop off the feedback ack tail, and retired streams still
// answer StreamStats from their final snapshot.
func TestStreamRetirement(t *testing.T) {
	p := newTestPath(25, 1e6, 5*time.Millisecond, netsim.NewDropTail(64), nil)
	f := p.startFlow(FlowConfig{
		Profile: multiProfile(), // MaxStreams 8
		RTTHint: 10 * time.Millisecond,
	})
	const rounds = 20 // 20 sequential streams >> the cap of 8
	var ids []uint64
	var round func(int)
	round = func(i int) {
		if i == rounds {
			return
		}
		id, err := f.Sender.OpenStream(packet.StreamReliableUnordered, 0)
		if err != nil {
			t.Fatalf("round %d: OpenStream: %v (retirement broken?)", i, err)
		}
		ids = append(ids, id)
		f.Sender.WriteStream(id, make([]byte, 3000))
		f.Sender.CloseStream(id)
		f.Pump()
		// Next round once this stream is resolved and reclaimed.
		var wait func()
		wait = func() {
			if _, live := f.Sender.sendByID[id]; !live {
				round(i + 1)
				return
			}
			p.sim.After(20*time.Millisecond, wait)
		}
		p.sim.After(20*time.Millisecond, wait)
	}
	p.sim.At(10*time.Millisecond, round0(round))
	p.sim.Run(60 * time.Second)

	if len(ids) != rounds {
		t.Fatalf("opened %d streams, want %d", len(ids), rounds)
	}
	for _, id := range ids {
		if got := f.StreamDelivered[id]; got != 3000 {
			t.Fatalf("stream %d delivered %d, want 3000", id, got)
		}
		// Retired on both sides, but stats survive as snapshots.
		st, ok := f.Receiver.StreamStats(id)
		if !ok || st.DeliveredBytes != 3000 {
			t.Fatalf("receiver StreamStats(%d) = %+v/%v after retirement", id, st, ok)
		}
		if _, ok := f.Sender.StreamStats(id); !ok {
			t.Fatalf("sender StreamStats(%d) lost after retirement", id)
		}
	}
	if n := len(f.Sender.sendStreams); n != 1 {
		t.Fatalf("%d live send streams at end, want 1 (stream 0)", n)
	}
	if n := len(f.Receiver.recvOrder); n > 1 {
		t.Fatalf("%d live recv streams at end, want <= 1", n)
	}
	// Finished streams no longer ride the ack tail.
	if tail := f.Receiver.streamAckTail(); len(tail) > 1 {
		t.Fatalf("ack tail still carries %d entries after retirement", len(tail))
	}
	// Finished answers for the receive half: retired send streams must
	// not make the sending endpoint report it.
	if f.Sender.Finished() {
		t.Fatal("sending endpoint reports Finished after retiring send streams")
	}

	// A stream the application has not drained is not reclaimed, however
	// finished and acknowledged: its chunks are still owed. One more
	// stream, plus the end of stream 0, arrives at a receiver nobody reads.
	p.toRecv.Target = netsim.HandlerFunc(func(pk *netsim.Packet) {
		_ = f.Receiver.HandleFrame(p.sim.Now(), pk.Payload.([]byte))
		f.pumpReceiver()
	})
	last, err := f.Sender.OpenStream(packet.StreamReliableUnordered, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Sender.WriteStream(last, make([]byte, 3000))
	f.Sender.CloseStream(last)
	f.Sender.WriteStream(0, make([]byte, 1000))
	f.Sender.CloseStream(0)
	f.Pump()
	p.sim.Run(p.sim.Now() + 10*time.Second)
	if _, live := f.Sender.sendByID[last]; live {
		t.Fatal("the sender never saw the undrained stream acknowledged")
	}
	unread := func(id uint64) int {
		st, _ := f.Receiver.StreamStats(id)
		return st.UnreadBytes
	}
	if _, live := f.Receiver.recvByID[last]; !live || unread(last) != 3000 {
		t.Fatalf("finished stream retired with %d bytes unread (live=%v)", unread(last), live)
	}
	for unread(last)+unread(0) > 0 {
		if f.Receiver.Finished() {
			t.Fatal("Finished() with delivered chunks still unread")
		}
		_, chunk, _ := f.Receiver.ReadAny()
		bufpool.PutChunk(chunk)
	}
	if !f.Receiver.Finished() {
		t.Fatal("not Finished() after the last chunk was read")
	}
	f.Receiver.PollFrame(p.sim.Now()) // a pump turn reclaims what was drained
	if _, live := f.Receiver.recvByID[last]; live {
		t.Fatal("drained stream still not retired")
	}
}

// round0 adapts a func(int) starting at 0 to a sim callback.
func round0(f func(int)) func() { return func() { f(0) } }

// TestStreamLimitEnforced pins the negotiated stream cap.
func TestStreamLimitEnforced(t *testing.T) {
	c := NewConn(Config{Initiator: true, Profile: multiProfile(), ConnID: 1})
	prof := multiProfile().Normalize()
	c.StartDirect(0, prof, 10*time.Millisecond)
	for i := 0; i < prof.MaxStreams-1; i++ {
		if _, err := c.OpenStream(packet.StreamReliableOrdered, 0); err != nil {
			t.Fatalf("OpenStream %d: %v", i, err)
		}
	}
	if _, err := c.OpenStream(packet.StreamReliableOrdered, 0); err != ErrStreamLimit {
		t.Fatalf("err = %v, want ErrStreamLimit", err)
	}
	// Expiring streams need a deadline.
	c2 := NewConn(Config{Initiator: true, Profile: multiProfile(), ConnID: 2})
	c2.StartDirect(0, prof, 10*time.Millisecond)
	if _, err := c2.OpenStream(packet.StreamExpiring, 0); err == nil {
		t.Fatal("expiring stream without deadline accepted")
	}
}

// TestStreamSchedulingEqualShares drives buildData directly on an
// established sender. Two backlogged streams alternate frame for frame.
// A round gives every stream with data one turn, so a stream whose data
// arrives after its turn waits for the round to end, while one that has
// not had its turn yet is served in it; a plain cursor round-robin would
// serve the first stream again at once.
func TestStreamSchedulingEqualShares(t *testing.T) {
	c := NewConn(Config{Initiator: true, Profile: multiProfile(), ConnID: 9})
	prof := multiProfile().Normalize()
	c.StartDirect(0, prof, 10*time.Millisecond)
	mss := prof.MSS

	open := func() uint64 {
		t.Helper()
		id, err := c.OpenStream(packet.StreamReliableOrdered, 0)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		return id
	}
	// next builds one data frame and reports the stream it carried.
	next := func() uint64 {
		t.Helper()
		f, ok := c.buildData(0, nil)
		if !ok {
			t.Fatal("buildData refused with backlogged streams")
		}
		var hdr packet.Header
		payload, err := hdr.Parse(f)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		var si packet.StreamInfo
		if _, err := si.Parse(payload, hdr.Seq); err != nil {
			t.Fatalf("parse prefix: %v", err)
		}
		return si.ID
	}
	order := func(n int) []uint64 {
		var ids []uint64
		for i := 0; i < n; i++ {
			ids = append(ids, next())
		}
		return ids
	}

	// Stream 0 stays empty throughout; it still takes part in the
	// cursor's walk.
	a, b, x, d := open(), open(), open(), open()
	c.WriteStream(a, make([]byte, 100*mss))
	c.WriteStream(d, make([]byte, 100*mss))
	got := order(21)
	for i, id := range got {
		if want := []uint64{a, d}[i%2]; id != want {
			t.Fatalf("backlogged streams did not alternate 1:1: %v", got)
		}
	}

	// The last frame opened a round with a's turn; b (its only frame)
	// and d follow, and x has nothing yet. Then b and x get data: b has
	// had its turn this round and waits for the next one, x has not and
	// goes at once, which ends the round.
	c.WriteStream(b, make([]byte, mss))
	got = order(2)
	c.WriteStream(b, make([]byte, mss))
	c.WriteStream(x, make([]byte, mss))
	got = append(got, order(6)...)
	want := []uint64{b, d, x, d, a, b, d, a}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stream order %v, want %v", got, want)
	}
}

// blackout is a togglable total-loss model: while *on it eats every
// forward packet, which engineers a deterministically lost stream tail.
type blackout struct{ on *bool }

func (b blackout) Lose(rng *rand.Rand, p *netsim.Packet) bool { return *b.on }

// TestExpiringStreamForwardFIN is the forward-FIN regression: an
// expiring stream whose final chunk AND FIN vanish into a link blackout
// that outlasts the retransmission deadline. The sender abandons the
// whole tail, so no data retransmission will ever carry the FIN again —
// only the StreamReset forward FIN can tell the receiver where the
// stream ends. Before it existed, the receiver held the stream open
// (and the connection with it) forever.
func TestExpiringStreamForwardFIN(t *testing.T) {
	drop := false
	p := newTestPath(26, 250_000, 10*time.Millisecond, &netsim.DropTail{},
		blackout{&drop})
	f := p.startFlow(FlowConfig{
		Profile: multiProfile(),
		RTTHint: 20 * time.Millisecond,
	})

	const deadline = 150 * time.Millisecond
	var exp uint64
	p.sim.At(10*time.Millisecond, func() {
		id, err := f.Sender.OpenStream(packet.StreamExpiring, deadline)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		exp = id
		f.Sender.WriteStream(0, make([]byte, 20_000))
		f.Sender.CloseStream(0)
		f.Pump()
	})
	// Feed the expiring stream over a clean link...
	for i := 0; i < 10; i++ {
		p.sim.At(time.Duration(20+20*i)*time.Millisecond, func() {
			f.Sender.WriteStream(exp, make([]byte, 1000))
			f.Pump()
		})
	}
	// ...then black out the forward path exactly as the tail goes out.
	p.sim.At(300*time.Millisecond, func() {
		drop = true
		f.Sender.WriteStream(exp, make([]byte, 1000))
		f.Sender.CloseStream(exp)
		f.Pump()
	})
	// Restore the link only after the tail's retransmission deadline has
	// long run out: every data copy of the FIN is abandoned by now.
	p.sim.At(600*time.Millisecond, func() { drop = false })
	p.sim.Run(60 * time.Second)

	ss, ok := f.Sender.StreamStats(exp)
	if !ok || ss.AbandonedSegs == 0 {
		t.Fatalf("blackout did not force tail abandonment (stats %+v ok=%v)", ss, ok)
	}
	if got := f.Sender.Stats().StreamResetsSent; got == 0 {
		t.Fatal("sender abandoned the FIN but sent no forward FIN")
	}
	if got := f.Receiver.Stats().StreamResetsRcvd; got == 0 {
		t.Fatal("receiver never applied a forward FIN")
	}
	rs, ok := f.Receiver.StreamStats(exp)
	if !ok {
		t.Fatal("receiver has no expiring stream stats")
	}
	if rs.SkippedSegs == 0 {
		t.Fatal("forward FIN applied but no tail segments skipped")
	}
	if !f.Receiver.Finished() {
		t.Fatal("receiver did not finish: forward FIN lost or ignored")
	}
	if got := f.StreamDelivered[0]; got != 20_000 {
		t.Fatalf("reliable stream delivered %d bytes, want 20000", got)
	}
	if st := f.Sender.State(); st != StateClosed && st != StateClosing {
		t.Fatalf("sender state = %v, want closing/closed", st)
	}
}
