package tfrc

import (
	"time"

	"repro/internal/seqspace"
)

// ReceiverConfig configures the classic RFC 3448 receiver.
type ReceiverConfig = LossConfig

// Receiver is the RFC 3448 §6 receiver: it detects loss events from
// sequence gaps, maintains the WALI loss history, measures the receive
// rate, and decides when feedback is due. This is the machinery QTPlight
// removes from light clients — its cost is what experiment E4 measures,
// via the Ops and StateBytes accessors.
type Receiver struct {
	lossHistory

	received seqspace.IntervalSet
	started  bool // the rate window is open: something arrived
	maxSeq   seqspace.Seq

	senderRTT time.Duration // RTT estimate from data headers
}

// NewReceiver returns a classic TFRC receiver.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	return &Receiver{lossHistory: newLossHistory(cfg)}
}

// OnData processes one data packet arrival. senderRTT is the sender's
// RTT estimate carried in the packet header (RFC 3448 §3.2.1), used to
// coalesce losses into loss events. It reports whether feedback should
// be sent immediately: on the first original packet, where loss
// detection starts even if a retransmission came first, when a new loss
// event began (RFC 3448 §6.1 rules 1 and 2), or when feedbackFloor has
// held a report back over feedbackBytes of arrivals.
func (r *Receiver) OnData(now time.Duration, seq seqspace.Seq, size int, senderRTT time.Duration) bool {
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
		return true // first original: send feedback for the RTT sample
	}
	if rs := r.received.Ranges(); seq == r.maxSeq.Next() && len(rs) == 1 &&
		rs[0].Lo == r.scanner.cursor && rs[0].Hi == seq {
		// Header prediction: the next sequence number, with no hole
		// between the cursor and it. The general path would add seq,
		// scan an empty gap list, move the cursor to seq and trim the
		// set behind it; this is its result.
		r.received.Reset(seqspace.Range{Lo: seq, Hi: seq.Next()})
		r.maxSeq, r.scanner.cursor = seq, seq
		r.windowBytes += size
		return r.settle(false)
	}
	if seq.Less(r.scanner.cursor) {
		// Late: below the cursor the holes are declared and the arrivals
		// forgotten. Traffic for X_recv, nothing for loss detection.
		r.windowBytes += size
		return false
	}
	if r.received.Contains(seq) {
		return false // duplicate (retransmission already seen)
	}
	r.received.AddSeq(seq)
	r.windowBytes += size
	if r.maxSeq.Less(seq) {
		r.maxSeq = seq
	}

	newEvent := false
	r.scanner.scan(&r.received, r.maxSeq, func(hole seqspace.Range) {
		// A hole happened when the arrivals above it declared it. Urgent
		// (loss-triggered) feedback can fire moments after the last
		// report; a sub-RTT window yields a meaningless rate that would
		// collapse the sender (X <= 2·X_recv), so the window is at least
		// one RTT.
		if r.onHole(now, now, hole, r.senderRTT, r.senderRTT) {
			newEvent = true
		}
	})
	// Nothing below the cursor is read again: keep the reordering window.
	r.received.RemoveBefore(r.scanner.cursor)
	return r.settle(newEvent)
}

// settle ends an arrival that moved maxSeq or may have: it updates the
// open loss interval and reports whether feedback is due now.
func (r *Receiver) settle(newEvent bool) bool {
	if r.haveEvent {
		// Open interval: packets since the current event started.
		r.wali.SetOpen(float64(r.eventStart.Distance(r.maxSeq)))
	}
	heldBack := r.senderRTT > 0 && r.FeedbackInterval() > r.senderRTT
	return newEvent || heldBack && r.windowBytes >= feedbackBytes
}

// OnRetransmit accounts a retransmitted arrival: it contributes to the
// receive rate (it is real traffic, and it must trigger feedback so the
// sender learns the recovery succeeded) but is invisible to loss
// detection, which models the first-transmission sequence stream.
func (r *Receiver) OnRetransmit(now time.Duration, size int) {
	r.Ops++
	if !r.started {
		r.started = true
		r.windowStart = now
	}
	r.windowBytes += size
}

// feedbackFloor is δ, the shortest interval between two periodic
// receiver reports. RFC 3448 §6.2 reports once per RTT, which on a
// tens-of-µs loopback path is every fourth 256 B message: each report a
// datagram with its own syscall, seal, wake-up, receive and open. QUIC
// bounds the same cost with max_ack_delay (RFC 9000 §13.2.1). Against
// once-per-RTT, five interleaved 4 s runs of a 256 B ping-pong over
// loopback (2-vCPU Xeon) spent 20.8% less CPU per KiB at 250 µs, 21.9%
// at 1 ms and 20.8% at 4 ms: past 250 µs there is nothing left to buy,
// and 1 ms stays well under retxTimeout's 10 ms floor. Every simulated
// path has an RTT of at least 20 ms, so the floor never applies there.
// Urgent reports (the first packet, a new loss event) are not delayed.
const feedbackFloor = time.Millisecond

// feedbackBytes caps what the floor may hold a report back over. At
// loopback rates 1 ms is hundreds of full frames, all held in the
// sender's scoreboard until a report acknowledges them, and all resent
// if a stall of the process lets the sender's 10 ms retransmission timer
// fire first. A report at least every 256 KiB bounds that exposure near
// what once-per-RTT left on a 64 KiB-block bulk transfer over loopback,
// at two-thirds of its reports (0.0054 per data frame against 0.0082).
const feedbackBytes = 256 << 10

// FeedbackInterval returns how often periodic feedback is due: once per
// RTT as estimated by the sender (RFC 3448 §6.2), but no more often than
// feedbackFloor, defaulting to 100 ms until the first data packet
// announces an RTT.
func (r *Receiver) FeedbackInterval() time.Duration {
	if r.senderRTT <= 0 {
		return 100 * time.Millisecond
	}
	return max(r.senderRTT, feedbackFloor)
}

// MakeReport produces the (X_recv, p) pair for a feedback packet, the
// rate measured over at least one RTT, and resets the receive-rate
// measurement window.
func (r *Receiver) MakeReport(now time.Duration) (xRecv float64, p float64) {
	return r.report(now, r.senderRTT)
}

// StateBytes estimates the receiver-side TFRC state in bytes: the loss
// history (bounded by the WALI depth) plus the arrival interval set
// (trimmed at the hole scanner's cursor, so bounded by the holes among
// the last few arrivals, not by the connection's age). This is the memory
// the paper's QTPlight shifts to the sender (E4 metric).
func (r *Receiver) StateBytes() int {
	return r.wali.StateBytes() + 8*2*cap(r.received.Ranges()) + 64
}

// WALIOps returns the loss-history operation count (E4 metric).
func (r *Receiver) WALIOps() int { return r.wali.Ops }
