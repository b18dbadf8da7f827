package tfrc

import (
	"time"

	"repro/internal/seqspace"
)

// EstimatorConfig configures the QTPlight sender-side loss estimator.
type EstimatorConfig = LossConfig

// SenderEstimator reconstructs the TFRC loss event rate and receive rate
// at the *sender* from bare SACK feedback — the paper's §3 proposal.
// The receiver keeps no loss history at all; because the sender also
// knows the exact transmission time of every packet, loss-event
// coalescing uses true send times instead of the receiver-side
// interpolation RFC 3448 needs.
//
// It also makes the transport robust against selfish receivers: p and
// X_recv are computed from which packets the receiver acknowledges, not
// from numbers the receiver claims (cf. Georg & Gorinsky [3]). A
// receiver can still lie by acknowledging packets it never got, but then
// it must reconstruct data it does not have — lying is no longer free.
type SenderEstimator struct {
	lossHistory // its rate window counts bytes newly acknowledged

	acked seqspace.IntervalSet // first-transmission seqs acknowledged, trimmed below min(scanner.cursor, cum)
	cum   seqspace.Seq         // highest cumulative ack seen

	sendTimes timeRing
	started   bool
	nextSeq   seqspace.Seq // next first-transmission sequence number
	gapBuf    []seqspace.Range
}

// NewSenderEstimator returns a QTPlight estimator.
func NewSenderEstimator(cfg EstimatorConfig) *SenderEstimator {
	return &SenderEstimator{lossHistory: newLossHistory(cfg)}
}

// OnSent records the first transmission of seq at time now with the
// given payload size. First transmissions must be reported in sequence
// order; retransmissions must not be reported (loss estimation operates
// on the original packet stream).
func (e *SenderEstimator) OnSent(now time.Duration, seq seqspace.Seq, size int) {
	e.Ops++
	if !e.started {
		e.started = true
		e.nextSeq = seq
		e.cum = seq
		e.scanner.start(seq)
		e.windowStart = now
	}
	if seq != e.nextSeq {
		panic("tfrc: OnSent out of order")
	}
	e.sendTimes.put(seq, now, size)
	e.nextSeq = seq.Next()
}

// OnAckVector folds one SACK frame into the estimator. cumAck
// acknowledges everything below it; blocks acknowledge ranges above.
// rtt is the sender's current RTT estimate (for loss-event coalescing).
func (e *SenderEstimator) OnAckVector(now time.Duration, cumAck seqspace.Seq, blocks []seqspace.Range, rtt time.Duration) {
	if !e.started {
		return
	}
	e.Ops++
	if base := e.sendTimes.baseSeq(); base.Less(cumAck) {
		e.ackRange(seqspace.Range{Lo: base, Hi: seqspace.Min(cumAck, e.nextSeq)})
	}
	e.cum = seqspace.Max(e.cum, seqspace.Min(cumAck, e.nextSeq))
	// acked is trimmed below floor. A vector's blocks lie above its own
	// cumulative ack: only a stale one reaches under, and would count twice.
	floor := seqspace.Min(e.scanner.cursor, e.cum)
	for _, b := range blocks {
		lo, hi := seqspace.Max(b.Lo, floor), seqspace.Min(b.Hi, e.nextSeq)
		if lo.Less(hi) {
			e.ackRange(seqspace.Range{Lo: lo, Hi: hi})
		}
	}
	if e.acked.Len() == 0 {
		return
	}
	maxAcked := e.acked.Max().Prev()
	e.scanner.scan(&e.acked, maxAcked, func(hole seqspace.Range) {
		// Exact send-time coalescing: packets sent within one RTT of the
		// event start belong to the same congestion event.
		sent, ok := e.sendTimes.at(hole.Lo)
		if !ok {
			sent = now - rtt // conservative fallback; should not happen
		}
		e.onHole(now, sent, hole, rtt, 0)
	})
	if e.haveEvent {
		e.wali.SetOpen(float64(e.eventStart.Distance(maxAcked)))
	}
	// Entries below the scanner cursor are resolved: their send times can
	// go, and their acknowledgments once the receiver's cumulative ack has
	// passed them too — until then a block may still report a hole below
	// the cursor as filled (its retransmission landed), counted once.
	e.sendTimes.advance(e.scanner.cursor)
	e.acked.RemoveBefore(seqspace.Min(e.scanner.cursor, e.cum))
}

func (e *SenderEstimator) ackRange(r seqspace.Range) {
	// Count only newly acknowledged bytes for the receive-rate estimate:
	// walk the parts of r not yet in the acked set.
	e.gapBuf = e.acked.Gaps(e.gapBuf[:0], r.Lo, r.Hi)
	if len(e.gapBuf) == 0 {
		return
	}
	e.Ops++
	for _, g := range e.gapBuf {
		for s := g.Lo; s != g.Hi; s = s.Next() {
			if size, ok := e.sendTimes.size(s); ok {
				e.windowBytes += size
			} else {
				e.windowBytes += e.cfg.SegmentSize
			}
		}
	}
	e.acked.Add(r)
}

// MakeReport produces the (X_recv, p) pair the rate machine consumes,
// resetting the rate window — the sender-side equivalent of the
// receiver's feedback packet.
func (e *SenderEstimator) MakeReport(now time.Duration) (xRecv float64, p float64) {
	return e.report(now, 0)
}

// StateBytes estimates the estimator's memory footprint — state that
// QTPlight moves from the receiver to the sender (E4 metric): the loss
// history, bounded by the WALI depth; the send-time ring, by the largest
// span in flight; the acked set, by the holes between the receiver's
// cumulative ack and the newest acknowledgment. None of it grows with age.
func (e *SenderEstimator) StateBytes() int {
	return e.wali.StateBytes() + 8*2*cap(e.acked.Ranges()) + e.sendTimes.stateBytes() + 96
}

// timeRing stores (send time, size) per sequence number for the live
// window [base, next), indexed modulo capacity. Capacity grows to cover
// the largest in-flight span seen.
type timeRing struct {
	base  seqspace.Seq
	next  seqspace.Seq
	times []time.Duration
	sizes []uint32
	init  bool
}

func (tr *timeRing) put(seq seqspace.Seq, t time.Duration, size int) {
	if !tr.init {
		tr.init = true
		tr.base = seq
		tr.next = seq
	}
	need := tr.base.Distance(seq) + 1
	if need > len(tr.times) {
		tr.grow(need)
	}
	i := int(uint32(seq)) % len(tr.times)
	tr.times[i] = t
	tr.sizes[i] = uint32(size)
	if tr.next.LessEq(seq) {
		tr.next = seq.Next()
	}
}

func (tr *timeRing) grow(need int) {
	capNew := 64
	for capNew < 2*need {
		capNew *= 2
	}
	times := make([]time.Duration, capNew)
	sizes := make([]uint32, capNew)
	for s := tr.base; s != tr.next; s = s.Next() {
		if len(tr.times) > 0 {
			old := int(uint32(s)) % len(tr.times)
			j := int(uint32(s)) % capNew
			times[j] = tr.times[old]
			sizes[j] = tr.sizes[old]
		}
	}
	tr.times = times
	tr.sizes = sizes
}

func (tr *timeRing) at(seq seqspace.Seq) (time.Duration, bool) {
	if !tr.init || seq.Less(tr.base) || !seq.Less(tr.next) {
		return 0, false
	}
	return tr.times[int(uint32(seq))%len(tr.times)], true
}

func (tr *timeRing) size(seq seqspace.Seq) (int, bool) {
	if !tr.init || seq.Less(tr.base) || !seq.Less(tr.next) {
		return 0, false
	}
	return int(tr.sizes[int(uint32(seq))%len(tr.times)]), true
}

func (tr *timeRing) baseSeq() seqspace.Seq { return tr.base }

func (tr *timeRing) advance(to seqspace.Seq) {
	if tr.init && tr.base.Less(to) && to.LessEq(tr.next) {
		tr.base = to
	}
}

func (tr *timeRing) stateBytes() int { return 12 * len(tr.times) }
