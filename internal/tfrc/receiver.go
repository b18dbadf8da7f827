package tfrc

import (
	"time"

	"repro/internal/seqspace"
)

// ReceiverConfig configures the classic RFC 3448 receiver.
type ReceiverConfig struct {
	// SegmentSize s in bytes, used when seeding the loss history after
	// the first loss event. Required.
	SegmentSize int
	// WALIDepth is the loss-interval history depth (default 8).
	WALIDepth int
	// DupThresh is the number of higher-sequence arrivals that declare a
	// hole lost (default 3).
	DupThresh int
}

// Receiver is the RFC 3448 §6 receiver: it detects loss events from
// sequence gaps, maintains the WALI loss history, measures the receive
// rate, and decides when feedback is due. This is the machinery QTPlight
// removes from light clients — its cost is what experiment E4 measures,
// via the Ops and StateBytes accessors.
type Receiver struct {
	cfg ReceiverConfig

	received seqspace.IntervalSet
	scanner  *holeScanner
	wali     *LossIntervals
	started  bool
	maxSeq   seqspace.Seq

	haveEvent  bool
	eventStart seqspace.Seq
	eventTime  time.Duration

	// Receive-rate window.
	windowBytes int
	windowStart time.Duration

	senderRTT time.Duration // RTT estimate from data headers

	// Ops counts per-packet processing operations (E4 metric).
	Ops int
}

// NewReceiver returns a classic TFRC receiver.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	if cfg.SegmentSize <= 0 {
		panic("tfrc: SegmentSize required")
	}
	if cfg.WALIDepth == 0 {
		cfg.WALIDepth = DefaultWALIDepth
	}
	if cfg.DupThresh == 0 {
		cfg.DupThresh = 3
	}
	return &Receiver{
		cfg:     cfg,
		scanner: newHoleScanner(cfg.DupThresh),
		wali:    NewLossIntervals(cfg.WALIDepth),
	}
}

// OnData processes one data packet arrival. senderRTT is the sender's
// RTT estimate carried in the packet header (RFC 3448 §3.2.1), used to
// coalesce losses into loss events. It reports whether feedback should
// be sent immediately (first packet, or a new loss event began —
// RFC 3448 §6.1 rules 1 and 2).
func (r *Receiver) OnData(now time.Duration, seq seqspace.Seq, size int, senderRTT time.Duration) bool {
	r.Ops++
	if senderRTT > 0 {
		r.senderRTT = senderRTT
	}
	if !r.started {
		r.started = true
		r.maxSeq = seq
		r.windowStart = now
		r.scanner.start(seq)
		r.received.AddSeq(seq)
		r.windowBytes += size
		return true // first packet: send feedback for the RTT sample
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
		r.Ops += 2
		if r.onHole(now, hole) {
			newEvent = true
		}
	})
	// Nothing below the cursor is read again: keep the reordering window.
	r.received.RemoveBefore(r.scanner.cursor)
	if r.haveEvent {
		// Open interval: packets since the current event started.
		r.wali.SetOpen(float64(r.eventStart.Distance(r.maxSeq)))
	}
	return newEvent
}

// onHole folds one declared-lost hole into the loss-event structure.
// It reports whether a new loss event started.
func (r *Receiver) onHole(now time.Duration, hole seqspace.Range) bool {
	if !r.haveEvent {
		// First loss event ever: seed the history so the equation starts
		// from the rate actually being achieved (RFC 3448 §6.3.1).
		xRecv := r.currentRate(now)
		rtt := r.senderRTT
		if rtt <= 0 {
			rtt = 100 * time.Millisecond
		}
		p := InvertThroughput(xRecv, r.cfg.SegmentSize, rtt)
		r.wali.Seed(1 / p)
		r.haveEvent = true
		r.eventStart = hole.Lo
		r.eventTime = now
		return true
	}
	// Losses within one RTT of the event start belong to the same event.
	if now-r.eventTime <= r.senderRTT {
		return false
	}
	r.wali.SetOpen(float64(r.eventStart.Distance(hole.Lo)))
	r.wali.Close()
	r.eventStart = hole.Lo
	r.eventTime = now
	return true
}

func (r *Receiver) currentRate(now time.Duration) float64 {
	el := now - r.windowStart
	// Urgent (loss-triggered) feedback can fire moments after the last
	// report; a sub-RTT window yields a meaningless rate that would
	// collapse the sender (X <= 2·X_recv). Measure over at least one RTT.
	if el < r.senderRTT {
		el = r.senderRTT
	}
	if el <= 0 {
		return float64(r.windowBytes)
	}
	return float64(r.windowBytes) / el.Seconds()
}

// PendingBytes returns the bytes received since the last report. Per
// RFC 3448 §6.2 the receiver MUST NOT send feedback for an empty window
// (it would report X_recv = 0 and freeze the sender at minimum rate).
func (r *Receiver) PendingBytes() int { return r.windowBytes }

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

// P returns the receiver's current loss event rate estimate.
func (r *Receiver) P() float64 { return r.wali.P() }

// FeedbackInterval returns how often periodic feedback is due: once per
// RTT as estimated by the sender (RFC 3448 §6.2), defaulting to 100 ms
// until the first data packet announces an RTT.
func (r *Receiver) FeedbackInterval() time.Duration {
	if r.senderRTT <= 0 {
		return 100 * time.Millisecond
	}
	return r.senderRTT
}

// MakeReport produces the (X_recv, p) pair for a feedback packet and
// resets the receive-rate measurement window.
func (r *Receiver) MakeReport(now time.Duration) (xRecv float64, p float64) {
	xRecv = r.currentRate(now)
	r.windowBytes = 0
	r.windowStart = now
	return xRecv, r.wali.P()
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
