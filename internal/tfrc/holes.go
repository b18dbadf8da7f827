package tfrc

import (
	"time"

	"repro/internal/seqspace"
)

// LossConfig configures a TFRC loss history, at either end.
type LossConfig struct {
	// SegmentSize s in bytes, used when seeding the loss history after
	// the first loss event. Required.
	SegmentSize int
	// WALIDepth is the loss-interval history depth (default 8).
	WALIDepth int
}

// lossHistory is the RFC 3448 §5 loss-event machinery: the hole scanner,
// the WALI history, the current loss event and the receive-rate window.
// The classic Receiver runs it on the packets that arrived, QTPlight's
// SenderEstimator on the packets the receiver acknowledged; where it runs
// is the only difference between the two, which is the paper's point.
// The two ends differ only in what they pass in: when a hole happened
// (its arrival at the receiver, its send time at the sender) and the
// floor under the rate window.
type lossHistory struct {
	cfg     LossConfig
	scanner holeScanner
	wali    *LossIntervals

	haveEvent  bool
	eventStart seqspace.Seq
	eventTime  time.Duration // when the current event's first hole happened

	// Receive-rate window: bytes covered since the last report.
	windowBytes int
	windowStart time.Duration

	// Ops counts per-packet processing operations (E4 metric).
	Ops int
}

func newLossHistory(cfg LossConfig) lossHistory {
	if cfg.SegmentSize <= 0 {
		panic("tfrc: SegmentSize required")
	}
	if cfg.WALIDepth == 0 {
		cfg.WALIDepth = DefaultWALIDepth
	}
	return lossHistory{cfg: cfg, wali: NewLossIntervals(cfg.WALIDepth)}
}

// onHole folds one declared-lost hole into the loss-event structure and
// reports whether a new loss event started. at is when the hole happened
// and rtt the round trip that coalesces holes into one event: losses
// within one RTT of the event's start belong to it. minWindow floors the
// rate window the first event's seed is measured over.
func (h *lossHistory) onHole(now, at time.Duration, hole seqspace.Range, rtt, minWindow time.Duration) bool {
	h.Ops += 2
	if !h.haveEvent {
		// First loss event ever: seed the history so the equation starts
		// from the rate actually being achieved (RFC 3448 §6.3.1).
		xRecv := h.rate(now, minWindow)
		if rtt <= 0 {
			rtt = 100 * time.Millisecond
		}
		p := InvertThroughput(xRecv, h.cfg.SegmentSize, rtt)
		h.wali.Seed(1 / p)
		h.haveEvent = true
		h.eventStart = hole.Lo
		h.eventTime = at
		return true
	}
	if at-h.eventTime <= rtt {
		return false
	}
	h.wali.SetOpen(float64(h.eventStart.Distance(hole.Lo)))
	h.wali.Close()
	h.eventStart = hole.Lo
	h.eventTime = at
	return true
}

// rate returns the receive rate over the window since the last report,
// measured over at least minWindow.
func (h *lossHistory) rate(now, minWindow time.Duration) float64 {
	el := max(now-h.windowStart, minWindow)
	if el <= 0 {
		return float64(h.windowBytes)
	}
	return float64(h.windowBytes) / el.Seconds()
}

// report produces the (X_recv, p) pair a rate machine consumes and
// resets the receive-rate window.
func (h *lossHistory) report(now, minWindow time.Duration) (xRecv float64, p float64) {
	xRecv = h.rate(now, minWindow)
	h.windowBytes = 0
	h.windowStart = now
	return xRecv, h.wali.P()
}

// PendingBytes returns the bytes covered since the last report. Per
// RFC 3448 §6.2 an empty window must not drive a rate update: it would
// report X_recv = 0 and freeze the sender at the minimum rate.
func (h *lossHistory) PendingBytes() int { return h.windowBytes }

// P returns the current loss event rate estimate.
func (h *lossHistory) P() float64 { return h.wali.P() }

// holeScanner finds sequence-number holes that have become declarable as
// lost under the RFC 3448 §5.1 rule: a packet is considered lost once at
// least seqspace.DupThresh packets with higher sequence numbers are
// covered (received at the receiver, or SACKed at the sender). Its zero
// value waits for start.
type holeScanner struct {
	cursor  seqspace.Seq // everything below is resolved
	started bool
	buf     []seqspace.Range
}

// start initialises the cursor at the first sequence number of interest.
func (h *holeScanner) start(at seqspace.Seq) {
	if !h.started {
		h.cursor = at
		h.started = true
	}
}

// scan walks the unresolved region [cursor, max] of covered and reports
// each newly declarable hole to emit, in order. It stops at the first
// hole that is not yet declarable (too few covered packets above it) and
// leaves the cursor there, so each hole is emitted exactly once.
// max must be a covered sequence number (the highest one).
func (h *holeScanner) scan(covered *seqspace.IntervalSet, max seqspace.Seq, emit func(hole seqspace.Range)) {
	if !h.started {
		return
	}
	h.buf = covered.Gaps(h.buf[:0], h.cursor, max)
	for _, hole := range h.buf {
		if countAtOrAfter(covered, hole.Hi) < seqspace.DupThresh {
			h.cursor = hole.Lo
			return
		}
		emit(hole)
		h.cursor = hole.Hi
	}
	// No unresolved holes remain below max.
	h.cursor = max
}

// countAtOrAfter counts covered sequence numbers at or above s.
func countAtOrAfter(set *seqspace.IntervalSet, s seqspace.Seq) int {
	n := 0
	ranges := set.Ranges()
	for i := len(ranges) - 1; i >= 0; i-- {
		r := ranges[i]
		if r.Hi.LessEq(s) {
			break
		}
		lo := r.Lo
		if lo.Less(s) {
			lo = s
		}
		n += lo.Distance(r.Hi)
	}
	return n
}
