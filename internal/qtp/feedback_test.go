package qtp

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// noFeedbackCounter counts the sender's nofeedback-timer expiries.
type noFeedbackCounter struct {
	core.RateController
	n int
}

func (c *noFeedbackCounter) OnNoFeedback(now time.Duration) {
	c.n++
	c.RateController.OnNoFeedback(now)
}

// sentFrame is one frame the receiver put on the reverse path.
type sentFrame struct {
	at  time.Duration
	typ packet.Type
}

// pingPongRun is what runPingPong observed.
type pingPongRun struct {
	f          *Flow
	want       [2]int        // bytes written on stream 0 and the second stream
	ids        [2]uint64     // the two stream IDs
	noFeedback int           // sender nofeedback expiries while messages were in flight
	sent       []sentFrame   // every frame the receiver emitted, in order
	declared   int           // index into sent of the first frame after the first loss was declared, -1 if none
	declaredAt time.Duration // when it was declared
}

// subMsOneWay is the one-way delay of the paths below: a 50 µs RTT, as
// on loopback, far below the 1 ms report floor.
const subMsOneWay = 25 * time.Microsecond

// runPingPong drives msgs 256 B messages over a clean simulated path with
// 25 µs each way, as the loopback msg_pingpong workload does: two reliable
// ordered streams of a MaxStreams 8 connection, the next message on a
// stream written the moment the one before it is delivered, so one is in
// flight on each. dropAt > 0 drops that forward datagram (1-based).
func runPingPong(t *testing.T, prof core.Profile, msgs, dropAt int) *pingPongRun {
	t.Helper()
	const msgSize = 256
	path := newTestPath(31, 1.25e9, subMsOneWay, &netsim.DropTail{}, nil)
	sim := path.sim
	r := &pingPongRun{declared: -1}
	forwarded := 0
	dropper := netsim.HandlerFunc(func(p *netsim.Packet) {
		if forwarded++; forwarded == dropAt {
			return
		}
		path.fwd.Recv(p)
	})
	tap := netsim.HandlerFunc(func(p *netsim.Packet) {
		var hdr packet.Header
		if _, err := hdr.Parse(p.Payload.([]byte)); err != nil {
			t.Fatalf("receiver emitted a malformed frame: %v", err)
		}
		r.sent = append(r.sent, sentFrame{sim.Now(), hdr.Type})
		path.rev.Recv(p)
	})
	f := &Flow{sim: sim, cfg: FlowConfig{ID: 1, Fwd: dropper, Rev: tap},
		Sender:   NewConn(Config{Initiator: true, Profile: prof, ConnID: 1}),
		Receiver: NewConn(Config{Initiator: false, ConnID: 1})}
	r.f = f
	path.toSend.Target = f.SenderEntry()
	recvEntry := f.ReceiverEntry()
	path.toRecv.Target = netsim.HandlerFunc(func(p *netsim.Packet) {
		lossFree, next := f.Receiver.tfrcRecv.P() == 0, len(r.sent)
		recvEntry.Recv(p)
		if lossFree && f.Receiver.tfrcRecv.P() > 0 {
			r.declared, r.declaredAt = next, sim.Now()
		}
	})

	counter := &noFeedbackCounter{}
	written, delivered := 0, 0
	var got [2]int
	write := func(i int) {
		f.Sender.WriteStream(r.ids[i], make([]byte, msgSize))
		r.want[i] += msgSize
		written++
	}
	f.StreamDeliveredAt = func(_ netsim.Time, id uint64, n int) {
		i := 0
		if id != r.ids[0] {
			i = 1
		}
		if got[i] += n; got[i] < r.want[i] {
			return // the message is not all there yet
		}
		if delivered++; delivered == msgs {
			r.noFeedback = counter.n
		}
		if written < msgs {
			write(i)
		} else {
			f.Sender.CloseStream(r.ids[i])
		}
		f.Pump()
	}
	sim.At(0, func() {
		p := prof.Normalize()
		f.Sender.StartDirect(0, p, 2*subMsOneWay)
		f.Receiver.StartDirect(0, p, 0)
		counter.RateController = f.Sender.rc
		f.Sender.rc = counter
		id, err := f.Sender.OpenStream(packet.StreamReliableOrdered, 0)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		r.ids[1] = id
		write(0)
		write(1)
		f.Pump()
	})
	sim.Run(10 * time.Second)

	if written != msgs {
		t.Fatalf("%d of %d messages written", written, msgs)
	}
	for i, id := range r.ids {
		if f.StreamDelivered[id] != r.want[i] {
			t.Fatalf("stream %d: delivered %d of %d bytes written", id, f.StreamDelivered[id], r.want[i])
		}
	}
	if !f.Receiver.Finished() {
		t.Fatal("streams did not finish")
	}
	return r
}

// feedbackShare is receiver reports per data frame the sender put on the
// wire, the benchmark's qtp.acks_per_data_frame.
func (r *pingPongRun) feedbackShare(t *testing.T) float64 {
	st := r.f.Sender.Stats()
	fb := r.f.Receiver.Stats().FeedbackFrames
	t.Logf("%d feedback frames for %d data frames (%d retransmitted)", fb, st.DataFramesSent+st.RetransFrames, st.RetransFrames)
	return float64(fb) / float64(st.DataFramesSent+st.RetransFrames)
}

// bulkRun is what runBulk observed.
type bulkRun struct {
	f       *Flow
	reports int // receiver reports put on the reverse path
	held    int // most arrivals before one of them
}

// runBulk drives prof for dur over the clean 25 µs-each-way path with an
// application writing 1 GB/s, 100 kB every 100 µs, under the link's
// 1.25 GB/s, so no queue grows the RTT past the floor. (The flow's own
// Bulk refills only when the sender wakes, which an idle sender does on
// reports.)
func runBulk(t *testing.T, prof core.Profile, dur time.Duration) *bulkRun {
	t.Helper()
	path := newTestPath(31, 1.25e9, subMsOneWay, &netsim.DropTail{}, nil)
	sim := path.sim
	r := &bulkRun{}
	arrived := 0
	tap := netsim.HandlerFunc(func(p *netsim.Packet) {
		var hdr packet.Header
		if _, err := hdr.Parse(p.Payload.([]byte)); err == nil && hdr.Type == packet.TypeFeedback {
			r.held, arrived, r.reports = max(r.held, arrived), 0, r.reports+1
		}
		path.rev.Recv(p)
	})
	r.f = StartFlow(sim, FlowConfig{ID: 1, Profile: prof, RTTHint: 2 * subMsOneWay,
		Fwd: path.fwd, Rev: tap})
	recvEntry := r.f.ReceiverEntry()
	path.toRecv.Target = netsim.HandlerFunc(func(p *netsim.Packet) {
		arrived++
		recvEntry.Recv(p)
	})
	path.toSend.Target = r.f.SenderEntry()
	chunk := make([]byte, 100_000)
	var refill func()
	refill = func() {
		r.f.Sender.Write(chunk)
		r.f.Pump()
		sim.At(sim.Now()+100*time.Microsecond, refill)
	}
	sim.At(0, refill)
	sim.Run(dur)
	t.Logf("%d reports for %d data frames, at most %d arrivals before one; %d B delivered in %v",
		r.reports, r.f.Sender.Stats().DataFramesSent, r.held, r.f.DeliveredBytes, dur)
	return r
}

// TestFeedbackFloorSubMsPath pins the TFRC report floor on a path whose
// RTT (50 µs) is far below it: periodic reports come once per
// feedbackFloor, not once per RTT, or once per 256 KiB from a fast
// sender; the sender's nofeedback timer does not expire between them,
// and a new loss event is still reported at once. A BBR sender is fed
// ack vectors, which the floor does not touch.
func TestFeedbackFloorSubMsPath(t *testing.T) {
	const msgs = 10_000
	prof := core.QTPAF(1e9)
	prof.MaxStreams = 8

	t.Run("qtpaf", func(t *testing.T) {
		r := runPingPong(t, prof, msgs, 0)
		if share := r.feedbackShare(t); share > 0.05 {
			t.Fatalf("%.3f feedback frames per data frame, want ≤ 0.05", share)
		}
	})

	t.Run("tfrc", func(t *testing.T) {
		plain := prof
		plain.TargetRate = 0
		r := runPingPong(t, plain, msgs, 0)
		if r.noFeedback != 0 {
			t.Fatalf("the nofeedback timer expired %d times between reports: X halved each time", r.noFeedback)
		}
		if share := r.feedbackShare(t); share > 0.05 {
			t.Fatalf("%.3f feedback frames per data frame, want ≤ 0.05", share)
		}
	})

	t.Run("bulk", func(t *testing.T) {
		// A backlogged sender at 1 GB/s delivers ~700 frames a
		// millisecond: the report is due on 256 KiB of arrivals, not on
		// the floor's clock.
		const most = (256 << 10) / 1300
		r := runBulk(t, core.QTPAF(1e9), 20*time.Millisecond)
		if sent := r.f.Sender.Stats().DataFramesSent; sent < 10_000 {
			t.Fatalf("%d data frames in 20 ms: the sender never reached 1 GB/s", sent)
		}
		if r.held > most {
			t.Fatalf("a report waited for %d arrivals, want ≤ %d (256 KiB)", r.held, most)
		}
	})

	t.Run("bbr", func(t *testing.T) {
		// BBR asked for over classic reports reads ack vectors instead,
		// so the floor never holds its feedback back.
		r := runBulk(t, classicBBR(), 20*time.Millisecond)
		if r.f.Sender.BBR() == nil {
			t.Fatal("sender not on BBR")
		}
		if n := r.f.Receiver.Stats().FeedbackFrames; n != 0 {
			t.Fatalf("the receiver sent %d classic reports to a BBR sender", n)
		}
		if r.f.DeliveredBytes < 10_000_000 {
			t.Fatalf("%d B delivered in 20 ms, want ≥ 10 MB", r.f.DeliveredBytes)
		}
	})

	t.Run("tfrc-ramp", func(t *testing.T) {
		// Plain TFRC's slow start doubles X at most once per report, so
		// under the floor once a millisecond: it reaches the writer's rate
		// in about 5 ms instead of 2, and delivers 17.8 MB in 20 ms
		// (20.0 MB once per RTT).
		r := runBulk(t, core.ClassicTFRC(), 20*time.Millisecond)
		if r.f.DeliveredBytes < 16_000_000 {
			t.Fatalf("%d B delivered in 20 ms, want ≥ 16 MB", r.f.DeliveredBytes)
		}
	})

	t.Run("drop", func(t *testing.T) {
		r := runPingPong(t, prof, msgs, 500)
		if r.declared < 0 {
			t.Fatal("the dropped datagram never showed as a loss event")
		}
		if r.declared >= len(r.sent) {
			t.Fatalf("loss declared at %v, and the receiver sent nothing after it", r.declaredAt)
		}
		if next := r.sent[r.declared]; next.typ != packet.TypeFeedback || next.at != r.declaredAt {
			t.Fatalf("loss declared at %v; the receiver's next frame was %v at %v, want the urgent report on the same poll",
				r.declaredAt, next.typ, next.at)
		}
		if r.f.Sender.Stats().RetransFrames == 0 {
			t.Fatal("a datagram was dropped and nothing was retransmitted")
		}
	})
}
