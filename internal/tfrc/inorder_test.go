package tfrc

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/seqspace"
)

// refInOrderReceiver is the Receiver before header prediction: every
// arrival above the cursor is added to the interval set, scanned and
// trimmed. Only OnData is its own; the state and every other method are
// the Receiver's. Like the Receiver, it starts loss detection at the
// first original arrival, even when a retransmission arrived first.
type refInOrderReceiver struct{ *Receiver }

func (r refInOrderReceiver) OnData(now time.Duration, seq seqspace.Seq, size int, senderRTT time.Duration) bool {
	r.Ops++
	if senderRTT > 0 {
		r.senderRTT = senderRTT
	}
	if !r.scanner.started {
		if !r.started {
			r.started = true
			r.windowStart = now
		}
		r.maxSeq = seq
		r.scanner.start(seq)
		r.received.AddSeq(seq)
		r.windowBytes += size
		return true
	}
	if seq.Less(r.scanner.cursor) {
		r.windowBytes += size
		return false
	}
	if r.received.Contains(seq) {
		return false
	}
	r.received.AddSeq(seq)
	r.windowBytes += size
	if r.maxSeq.Less(seq) {
		r.maxSeq = seq
	}
	newEvent := false
	r.scanner.scan(&r.received, r.maxSeq, func(hole seqspace.Range) {
		if r.onHole(now, now, hole, r.senderRTT, r.senderRTT) {
			newEvent = true
		}
	})
	r.received.RemoveBefore(r.scanner.cursor)
	if r.haveEvent {
		r.wali.SetOpen(float64(r.eventStart.Distance(r.maxSeq)))
	}
	heldBack := r.senderRTT > 0 && r.FeedbackInterval() > r.senderRTT
	return newEvent || heldBack && r.windowBytes >= feedbackBytes
}

// inOrderView is what TestReceiverInOrderDifferential compares after
// every step. xRecv and p are the pair MakeReport would return now,
// read without resetting the window.
type inOrderView struct {
	urgent           bool
	xRecv, p         float64
	pending, ops     int
	state            int
	maxSeq, cursor   seqspace.Seq
	feedbackInterval time.Duration
}

func viewInOrder(r *Receiver, now time.Duration, urgent bool) inOrderView {
	return inOrderView{urgent, r.rate(now, r.senderRTT), r.P(), r.PendingBytes(), r.Ops,
		r.StateBytes(), r.maxSeq, r.scanner.cursor, r.FeedbackInterval()}
}

// TestReceiverInOrderDifferential drives the Receiver and the reference
// without header prediction through the same seeded arrivals — in-order
// runs, losses, reordering, duplicates, originals that land below the
// cursor and retransmissions, at RTTs on both sides of feedbackFloor —
// and compares the return value, the report pair, StateBytes and the
// received ranges after every step, and each report taken.
func TestReceiverInOrderDifferential(t *testing.T) {
	rtts := []time.Duration{0, 50 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := LossConfig{SegmentSize: 1400, WALIDepth: 2 + rng.Intn(8)}
		got, ref := NewReceiver(cfg), refInOrderReceiver{NewReceiver(cfg)}
		var (
			now     time.Duration
			next    = seqspace.Seq(rng.Uint32()) // next first transmission
			missing []seqspace.Seq               // dropped, may land late
			held    []seqspace.Seq               // overtaken, land later
		)
		if seed%4 == 0 {
			next = seqspace.Seq(1<<32 - 100)
		}
		rtt := rtts[rng.Intn(len(rtts))]
		for step := 0; step < 400; step++ {
			now += time.Duration(rng.Intn(500)) * time.Microsecond
			urgent := [2]bool{}
			arrive := func(seq seqspace.Seq) {
				size := 100 + rng.Intn(1300)
				a, b := got.OnData(now, seq, size, rtt), ref.OnData(now, seq, size, rtt)
				urgent[0], urgent[1] = urgent[0] || a, urgent[1] || b
			}
			switch op := rng.Intn(20); {
			case op < 10: // a run, mostly in order
				for n := 1 + rng.Intn(12); n > 0; n-- {
					switch rng.Intn(16) {
					case 0:
						missing = append(missing, next)
					case 1:
						held = append(held, next)
					default:
						arrive(next)
					}
					next = next.Next()
				}
			case op < 12 && len(held) > 0: // an overtaken one lands
				i := rng.Intn(len(held))
				arrive(held[i])
				held = slices.Delete(held, i, i+1)
			case op < 14 && len(missing) > 0: // a dropped original lands, often below the cursor
				i := rng.Intn(len(missing))
				arrive(missing[i])
				missing = slices.Delete(missing, i, i+1)
			case op < 15: // a duplicate of anything recent
				arrive(next.Add(-1 - rng.Intn(20)))
			case op < 17: // a retransmission
				size := 100 + rng.Intn(1300)
				got.OnRetransmit(now, size)
				ref.OnRetransmit(now, size)
			case op < 18: // the sender's RTT estimate moves
				rtt = rtts[rng.Intn(len(rtts))]
			default: // a report
				gx, gp := got.MakeReport(now)
				rx, rp := ref.MakeReport(now)
				if gx != rx || gp != rp {
					t.Fatalf("seed %d step %d: MakeReport = (%v, %v), reference (%v, %v)", seed, step, gx, gp, rx, rp)
				}
			}
			if g, w := viewInOrder(got, now, urgent[0]), viewInOrder(ref.Receiver, now, urgent[1]); g != w {
				t.Fatalf("seed %d step %d:\n got %+v\nwant %+v", seed, step, g, w)
			}
			if g, w := got.received.Ranges(), ref.received.Ranges(); !slices.Equal(g, w) {
				t.Fatalf("seed %d step %d: received %v, reference %v", seed, step, g, w)
			}
		}
	}
}
