package tfrc

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/seqspace"
)

// lossView is every observable of one loss history an E4 table or a rate
// machine reads.
type lossView struct {
	p                         float64
	pending, ops, state, wali int
	xRecv, reportP            float64
	urgent                    bool
	feedbackInterval          time.Duration
}

// rtts are the RTTs the differential hands in. The clock moves in whole
// milliseconds, so a hole is often exactly one RTT after its event's
// start: the boundary of the coalescing rule. None is below 1 ms: the
// reference receiver predates feedbackFloor, so under it the report
// interval and the 256 KiB report differ by design.
// TestReceiverFeedbackInterval and TestFeedbackFloorBytes cover sub-ms
// RTTs.
var rtts = []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond}

// tick advances the differential's clock: by 0-3 ms, now and then by up
// to 300 ms.
func tick(rng *rand.Rand, now time.Duration) time.Duration {
	if rng.Intn(40) == 0 {
		return now + time.Duration(rng.Intn(300))*time.Millisecond
	}
	return now + time.Duration(rng.Intn(4))*time.Millisecond
}

// TestLossHistoryDifferential drives the shared lossHistory, at both of
// its ends, and the reference models of the two copies it replaced with
// the same random steps, and compares every observable after every step.
// The receiver sees in-order, reordered, dropped, duplicated, late and
// retransmitted arrivals under a changing sender RTT; the estimator sees
// sends and ack vectors with cumulative jumps, stale blocks and RTT 0.
func TestLossHistoryDifferential(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		differentialReceiver(t, seed)
		differentialEstimator(t, seed)
	}
}

func differentialReceiver(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := LossConfig{SegmentSize: 1000, WALIDepth: 2 + rng.Intn(8)}
	got, want := NewReceiver(cfg), newRefReceiver(cfg)
	var (
		now     time.Duration
		next    = seqspace.Seq(rng.Uint32()) // next first transmission
		missing []seqspace.Seq               // dropped, may arrive late
		seen    []seqspace.Seq               // delivered, may arrive again
		held    []seqspace.Seq               // overtaken, arrive later
	)
	arrive := func(seq seqspace.Seq) (bool, bool) {
		size := 100 + rng.Intn(1400)
		rtt := rtts[rng.Intn(len(rtts))]
		seen = append(seen, seq)
		return got.OnData(now, seq, size, rtt), want.OnData(now, seq, size, rtt)
	}
	for step := 0; step < 400; step++ {
		now = tick(rng, now)
		var g, w bool
		var gx, gp, wx, wp float64
		op := rng.Intn(20)
		switch {
		case op < 9: // in order
			g, w = arrive(next)
			next = next.Next()
		case op < 11: // dropped
			missing = append(missing, next)
			next = next.Next()
		case op < 13: // overtaken by its successor
			held = append(held, next)
			next = next.Next()
			g, w = arrive(next)
			next = next.Next()
		case op < 14 && len(held) > 0: // an overtaken one lands
			i := rng.Intn(len(held))
			g, w = arrive(held[i])
			held = append(held[:i], held[i+1:]...)
		case op < 15 && len(seen) > 0: // duplicated
			g, w = arrive(seen[rng.Intn(len(seen))])
		case op < 16 && len(missing) > 0: // a dropped original arrives late
			i := rng.Intn(len(missing))
			g, w = arrive(missing[i])
			missing = append(missing[:i], missing[i+1:]...)
		case op < 18: // a retransmission
			size := 100 + rng.Intn(1400)
			got.OnRetransmit(now, size)
			want.OnRetransmit(now, size)
		default: // a report
			gx, gp = got.MakeReport(now)
			wx, wp = want.MakeReport(now)
		}
		gv := lossView{got.P(), got.PendingBytes(), got.Ops, got.StateBytes(), got.WALIOps(), gx, gp, g, got.FeedbackInterval()}
		wv := lossView{want.P(), want.PendingBytes(), want.Ops, want.StateBytes(), want.WALIOps(), wx, wp, w, want.FeedbackInterval()}
		if gv != wv {
			t.Fatalf("receiver, seed %d, step %d (op %d, t=%v):\n got %+v\nwant %+v", seed, step, op, now, gv, wv)
		}
	}
}

func differentialEstimator(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := LossConfig{SegmentSize: 1000, WALIDepth: 2 + rng.Intn(8)}
	got, want := NewSenderEstimator(cfg), newRefEstimator(cfg)
	var (
		now      time.Duration
		next     = seqspace.Seq(rng.Uint32()) // next first transmission
		cum      = next                       // the receiver's cumulative ack
		received seqspace.IntervalSet         // what the receiver holds above cum
		stale    []seqspace.Range             // an older vector's blocks
	)
	for step := 0; step < 400; step++ {
		now = tick(rng, now)
		var gx, gp, wx, wp float64
		op := rng.Intn(20)
		switch {
		case op < 9: // a send; most arrive
			size := 100 + rng.Intn(1400)
			got.OnSent(now, next, size)
			want.OnSent(now, next, size)
			if rng.Intn(8) != 0 {
				received.AddSeq(next)
			}
			next = next.Next()
		case op < 17: // an ack vector
			if op == 10 && cum.Less(next) {
				// The receiver gives up on the hole at its frontier, as an
				// unreliable stream does: the cumulative ack jumps.
				cum = cum.Add(1 + rng.Intn(cum.Distance(next)))
			}
			if op == 11 && cum.Less(next) {
				received.AddSeq(cum.Add(rng.Intn(cum.Distance(next)))) // a retransmission lands
			}
			cum = received.FirstMissingAfter(cum)
			received.RemoveBefore(cum)
			blocks := received.Ranges()[:min(received.Len(), 1+rng.Intn(4))]
			if op == 12 && len(stale) > 0 {
				blocks = stale // an old vector, delivered late
			} else if rng.Intn(4) == 0 {
				stale = append(stale[:0], blocks...)
			}
			rtt := rtts[rng.Intn(len(rtts))]
			got.OnAckVector(now, cum, blocks, rtt)
			want.OnAckVector(now, cum, blocks, rtt)
		default: // a report
			gx, gp = got.MakeReport(now)
			wx, wp = want.MakeReport(now)
		}
		gv := lossView{got.P(), got.PendingBytes(), got.Ops, got.StateBytes(), got.wali.Ops, gx, gp, false, 0}
		wv := lossView{want.P(), want.PendingBytes(), want.Ops, want.StateBytes(), want.wali.Ops, wx, wp, false, 0}
		if gv != wv {
			t.Fatalf("estimator, seed %d, step %d (op %d, t=%v):\n got %+v\nwant %+v", seed, step, op, now, gv, wv)
		}
	}
}
