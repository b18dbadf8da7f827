package tfrc

import (
	"time"

	"repro/internal/seqspace"
)

// The classic receiver and the QTPlight sender estimator as they stood
// when each kept its own copy of the loss-event logic (onHole, the
// receive-rate window, the report), kept as the reference models
// TestLossHistoryDifferential holds the shared lossHistory to. The code
// is as it was; names are prefixed, comments and the SegmentSize check
// dropped, and the duplicate threshold is seqspace's constant. One fix
// is shared with the receiver: loss detection starts at the first
// original arrival, even when a retransmission arrived first (before,
// such a receiver never started its hole scanner).

type refHoleScanner struct {
	cursor  seqspace.Seq // everything below is resolved
	started bool
	buf     []seqspace.Range
}

func newRefHoleScanner() *refHoleScanner { return &refHoleScanner{} }

func (h *refHoleScanner) start(at seqspace.Seq) {
	if !h.started {
		h.cursor = at
		h.started = true
	}
}

func (h *refHoleScanner) scan(covered *seqspace.IntervalSet, max seqspace.Seq, emit func(hole seqspace.Range)) {
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
	h.cursor = max
}

type refReceiver struct {
	cfg LossConfig

	received seqspace.IntervalSet
	scanner  *refHoleScanner
	wali     *LossIntervals
	started  bool
	maxSeq   seqspace.Seq

	haveEvent  bool
	eventStart seqspace.Seq
	eventTime  time.Duration

	windowBytes int
	windowStart time.Duration

	senderRTT time.Duration

	Ops int
}

func newRefReceiver(cfg LossConfig) *refReceiver {
	if cfg.WALIDepth == 0 {
		cfg.WALIDepth = DefaultWALIDepth
	}
	return &refReceiver{
		cfg:     cfg,
		scanner: newRefHoleScanner(),
		wali:    NewLossIntervals(cfg.WALIDepth),
	}
}

func (r *refReceiver) OnData(now time.Duration, seq seqspace.Seq, size int, senderRTT time.Duration) bool {
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
		r.Ops += 2
		if r.onHole(now, hole) {
			newEvent = true
		}
	})
	r.received.RemoveBefore(r.scanner.cursor)
	if r.haveEvent {
		r.wali.SetOpen(float64(r.eventStart.Distance(r.maxSeq)))
	}
	return newEvent
}

func (r *refReceiver) onHole(now time.Duration, hole seqspace.Range) bool {
	if !r.haveEvent {
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
	if now-r.eventTime <= r.senderRTT {
		return false
	}
	r.wali.SetOpen(float64(r.eventStart.Distance(hole.Lo)))
	r.wali.Close()
	r.eventStart = hole.Lo
	r.eventTime = now
	return true
}

func (r *refReceiver) currentRate(now time.Duration) float64 {
	el := now - r.windowStart
	if el < r.senderRTT {
		el = r.senderRTT
	}
	if el <= 0 {
		return float64(r.windowBytes)
	}
	return float64(r.windowBytes) / el.Seconds()
}

func (r *refReceiver) PendingBytes() int { return r.windowBytes }

func (r *refReceiver) OnRetransmit(now time.Duration, size int) {
	r.Ops++
	if !r.started {
		r.started = true
		r.windowStart = now
	}
	r.windowBytes += size
}

func (r *refReceiver) P() float64 { return r.wali.P() }

func (r *refReceiver) FeedbackInterval() time.Duration {
	if r.senderRTT <= 0 {
		return 100 * time.Millisecond
	}
	return r.senderRTT
}

func (r *refReceiver) MakeReport(now time.Duration) (xRecv float64, p float64) {
	xRecv = r.currentRate(now)
	r.windowBytes = 0
	r.windowStart = now
	return xRecv, r.wali.P()
}

func (r *refReceiver) StateBytes() int {
	return r.wali.StateBytes() + 8*2*cap(r.received.Ranges()) + 64
}

func (r *refReceiver) WALIOps() int { return r.wali.Ops }

type refEstimator struct {
	cfg LossConfig

	acked   seqspace.IntervalSet
	cum     seqspace.Seq
	scanner *refHoleScanner
	wali    *LossIntervals

	sendTimes timeRing
	started   bool
	nextSeq   seqspace.Seq

	haveEvent     bool
	eventStart    seqspace.Seq
	eventSendTime time.Duration

	windowBytes int
	windowStart time.Duration
	gapBuf      []seqspace.Range

	Ops int
}

func newRefEstimator(cfg LossConfig) *refEstimator {
	if cfg.WALIDepth == 0 {
		cfg.WALIDepth = DefaultWALIDepth
	}
	return &refEstimator{
		cfg:     cfg,
		scanner: newRefHoleScanner(),
		wali:    NewLossIntervals(cfg.WALIDepth),
	}
}

func (e *refEstimator) OnSent(now time.Duration, seq seqspace.Seq, size int) {
	e.Ops++
	if !e.started {
		e.started = true
		e.nextSeq = seq
		e.cum = seq
		e.scanner.start(seq)
		e.windowStart = now
	}
	if seq != e.nextSeq {
		panic("ref: OnSent out of order")
	}
	e.sendTimes.put(seq, now, size)
	e.nextSeq = seq.Next()
}

func (e *refEstimator) OnAckVector(now time.Duration, cumAck seqspace.Seq, blocks []seqspace.Range, rtt time.Duration) {
	if !e.started {
		return
	}
	e.Ops++
	if base := e.sendTimes.baseSeq(); base.Less(cumAck) {
		e.ackRange(seqspace.Range{Lo: base, Hi: seqspace.Min(cumAck, e.nextSeq)})
	}
	e.cum = seqspace.Max(e.cum, seqspace.Min(cumAck, e.nextSeq))
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
		e.Ops += 2
		e.onHole(now, hole, rtt)
	})
	if e.haveEvent {
		e.wali.SetOpen(float64(e.eventStart.Distance(maxAcked)))
	}
	e.sendTimes.advance(e.scanner.cursor)
	e.acked.RemoveBefore(seqspace.Min(e.scanner.cursor, e.cum))
}

func (e *refEstimator) ackRange(r seqspace.Range) {
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

func (e *refEstimator) onHole(now time.Duration, hole seqspace.Range, rtt time.Duration) {
	sent, ok := e.sendTimes.at(hole.Lo)
	if !ok {
		sent = now - rtt
	}
	if !e.haveEvent {
		xRecv := e.currentRate(now)
		if rtt <= 0 {
			rtt = 100 * time.Millisecond
		}
		p := InvertThroughput(xRecv, e.cfg.SegmentSize, rtt)
		e.wali.Seed(1 / p)
		e.haveEvent = true
		e.eventStart = hole.Lo
		e.eventSendTime = sent
		return
	}
	if sent-e.eventSendTime <= rtt {
		return
	}
	e.wali.SetOpen(float64(e.eventStart.Distance(hole.Lo)))
	e.wali.Close()
	e.eventStart = hole.Lo
	e.eventSendTime = sent
}

func (e *refEstimator) currentRate(now time.Duration) float64 {
	el := now - e.windowStart
	if el <= 0 {
		return float64(e.windowBytes)
	}
	return float64(e.windowBytes) / el.Seconds()
}

func (e *refEstimator) P() float64 { return e.wali.P() }

func (e *refEstimator) PendingBytes() int { return e.windowBytes }

func (e *refEstimator) MakeReport(now time.Duration) (xRecv float64, p float64) {
	xRecv = e.currentRate(now)
	e.windowBytes = 0
	e.windowStart = now
	return xRecv, e.wali.P()
}

func (e *refEstimator) StateBytes() int {
	return e.wali.StateBytes() + 8*2*cap(e.acked.Ranges()) + e.sendTimes.stateBytes() + 96
}
