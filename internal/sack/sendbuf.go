// Package sack implements the selective-acknowledgment reliability
// micro-protocol (RFC 2018 semantics adapted to QTP): the sender-side
// scoreboard/retransmission buffer and the receiver-side reassembler.
//
// Reliability in QTP is negotiable. Full reliability retransmits until
// delivery; partial reliability retransmits only while data is younger
// than a deadline, with the receiver skipping stale holes (receiver-
// driven release, like PR-SCTP's effect without extra signalling: the
// receiver's cumulative ack is authoritative — once it passes a hole the
// sender abandons the data). A no-reliability stream never adds a
// segment to its scoreboard.
//
// The package serves streams: qtp's one stream engine gives every
// stream a SendBuffer and a Reassembler or UnorderedReceiver, keyed by
// the stream's own sequence numbers, and resolves scoreboards against
// connection-level ack vectors through the conn number each segment
// remembers (AddStream/OnConnSACK). A stream framed without the prefix
// is the case where the two spaces coincide.
package sack

import (
	"time"

	"repro/internal/seqspace"
)

// segment is one sent-but-unresolved data frame in the scoreboard.
type segment struct {
	seq       seqspace.Seq
	conn      seqspace.Seq // connection-level sequence of the first transmission
	payload   []byte
	firstSent time.Duration
	lastSent  time.Duration
	sacked    bool
	lost      bool // declared lost, waiting for retransmission
	abandoned bool // past the partial-reliability deadline
	retx      int
}

// SendBuffer is the sender's scoreboard: it tracks outstanding segments,
// marks losses from SACK vectors (dup-threshold rule), schedules
// retransmissions, and expires segments under partial reliability.
type SendBuffer struct {
	// Deadline, when non-zero, abandons segments older than this
	// (partial reliability). Zero means full reliability.
	Deadline time.Duration
	// DupThresh is the number of SACKed segments above a hole that
	// declare it lost (default 3).
	DupThresh int
	// LossGuard, when non-zero, shields a retransmitted segment from
	// being re-declared lost until this long after its last
	// transmission: duplicate evidence that predates the retransmission
	// proves nothing about the retransmission itself. Senders whose
	// acknowledgment vectors can under-report (split block budgets) set
	// it near one RTT; zero keeps immediate re-marking.
	LossGuard time.Duration

	segs    []segment
	cumAck  seqspace.Seq
	started bool
	nextSeq seqspace.Seq

	// Counters.
	Retransmits   int
	AbandonedSegs int
	AckedBytes    int
}

// NewSendBuffer returns a scoreboard. deadline == 0 selects full
// reliability.
func NewSendBuffer(deadline time.Duration) *SendBuffer {
	return &SendBuffer{Deadline: deadline, DupThresh: 3}
}

// Add registers the first transmission of a segment. Segments must be
// added in sequence order; the payload is retained until resolved (the
// buffer owns it — callers must not reuse the slice).
func (b *SendBuffer) Add(now time.Duration, seq seqspace.Seq, payload []byte) {
	b.AddStream(now, seq, seq, payload)
}

// AddStream registers the first transmission of a segment whose
// connection-level sequence differs from its stream-level one: seq
// orders the segment within its stream (the scoreboard's key), conn is
// the connection-level number stamped in the frame header, against
// which connection-level SACK vectors resolve it (see OnConnSACK). Add
// is AddStream with the two spaces coinciding.
func (b *SendBuffer) AddStream(now time.Duration, seq, conn seqspace.Seq, payload []byte) {
	if !b.started {
		b.started = true
		b.cumAck = seq
	} else if seq != b.nextSeq {
		panic("sack: Add out of order")
	}
	b.nextSeq = seq.Next()
	b.segs = append(b.segs, segment{
		seq: seq, conn: conn, payload: payload, firstSent: now, lastSent: now,
	})
}

// Len returns the number of unresolved segments.
func (b *SendBuffer) Len() int { return len(b.segs) }

// CumAck returns the sender's view of the receiver's cumulative ack.
func (b *SendBuffer) CumAck() seqspace.Seq { return b.cumAck }

// OnSACK folds an acknowledgment vector into the scoreboard and returns
// the number of bytes newly resolved (cumulatively acked or SACKed).
func (b *SendBuffer) OnSACK(now time.Duration, cum seqspace.Seq, blocks []seqspace.Range) int {
	newly := 0
	// Advance the cumulative point.
	if b.cumAck.Less(cum) {
		b.cumAck = cum
		i := 0
		for i < len(b.segs) && b.segs[i].seq.Less(cum) {
			if !b.segs[i].sacked {
				newly += len(b.segs[i].payload)
			}
			i++
		}
		b.segs = b.segs[:copy(b.segs, b.segs[i:])]
	}
	// Mark SACKed ranges.
	for _, blk := range blocks {
		for i := range b.segs {
			s := &b.segs[i]
			if blk.Contains(s.seq) && !s.sacked {
				s.sacked = true
				s.lost = false
				newly += len(s.payload)
			}
		}
	}
	b.AckedBytes += newly
	b.markLost(now)
	return newly
}

// OnConnSACK folds a *connection-level* acknowledgment vector into the
// scoreboard: cum and blocks live in the connection sequence space that
// frame headers are stamped with, and each segment is matched through
// the conn number recorded by AddStream. Segments whose conn precedes
// cum are released — the receiver either received them contiguously or
// echoed the sender's own ack floor, which only passes segments already
// resolved or abandoned here. It returns the bytes newly resolved.
func (b *SendBuffer) OnConnSACK(now time.Duration, cum seqspace.Seq, blocks []seqspace.Range) int {
	newly := 0
	// Release the prefix below the connection-level cumulative point.
	// Within one stream, connection numbers increase with stream order,
	// so the prefix property holds.
	i := 0
	for i < len(b.segs) && b.segs[i].conn.Less(cum) {
		if !b.segs[i].sacked {
			newly += len(b.segs[i].payload)
		}
		i++
	}
	if i > 0 {
		if next := b.segs[i-1].seq.Next(); b.cumAck.Less(next) {
			b.cumAck = next
		}
		b.segs = b.segs[:copy(b.segs, b.segs[i:])]
	}
	for _, blk := range blocks {
		for i := range b.segs {
			s := &b.segs[i]
			if blk.Contains(s.conn) && !s.sacked {
				s.sacked = true
				s.lost = false
				newly += len(s.payload)
			}
		}
	}
	b.AckedBytes += newly
	b.markLost(now)
	return newly
}

// markLost applies the dup-threshold rule: a segment is lost once
// DupThresh segments above it are SACKed. Segments retransmitted within
// LossGuard of now are left alone — see the field comment.
func (b *SendBuffer) markLost(now time.Duration) {
	dt := b.DupThresh
	if dt <= 0 {
		dt = 3
	}
	sackedAbove := 0
	for i := len(b.segs) - 1; i >= 0; i-- {
		s := &b.segs[i]
		if s.sacked {
			sackedAbove++
			continue
		}
		if sackedAbove >= dt && !s.lost && !s.abandoned {
			if s.retx > 0 && now-s.lastSent < b.LossGuard {
				continue
			}
			s.lost = true
		}
	}
}

// MinUnresolvedConn returns the connection-level sequence of the oldest
// segment still awaiting acknowledgment or abandonment; ok is false when
// everything is resolved. It is the stream's contribution to the ack
// floor senders stamp in the stream prefix of data frames.
func (b *SendBuffer) MinUnresolvedConn() (conn seqspace.Seq, ok bool) {
	for i := range b.segs {
		s := &b.segs[i]
		if !s.sacked && !s.abandoned {
			return s.conn, true
		}
	}
	return 0, false
}

// NextRetransmitSeg returns the oldest segment due for retransmission —
// declared lost, or unacknowledged for longer than rto — marking it
// retransmitted at now. Under partial reliability, segments older than
// the deadline are abandoned instead of returned. ok is false when
// nothing is due. Both sequence spaces of the segment are returned: seq
// within the stream and conn at the connection level (a retransmission
// reuses the original connection number, so rate control keeps seeing
// one sequence per first transmission).
func (b *SendBuffer) NextRetransmitSeg(now time.Duration, rto time.Duration) (seq, conn seqspace.Seq, payload []byte, ok bool) {
	for i := range b.segs {
		s := &b.segs[i]
		if s.sacked || s.abandoned {
			continue
		}
		// Comparisons are inclusive so a wake-up scheduled from
		// NextTimeout at exactly the boundary finds the work ready.
		if b.Deadline > 0 && now-s.firstSent >= b.Deadline {
			s.abandoned = true
			s.lost = false
			b.AbandonedSegs++
			continue
		}
		if s.lost || (rto > 0 && now-s.lastSent >= rto) {
			s.lost = false
			s.lastSent = now
			s.retx++
			b.Retransmits++
			return s.seq, s.conn, s.payload, true
		}
	}
	return 0, 0, nil, false
}

// NextTimeout returns the earliest instant at which NextRetransmitSeg
// would have work to do — immediately for segments already declared lost,
// otherwise at RTO expiry or the partial-reliability deadline. ok is
// false if the buffer holds nothing unresolved.
func (b *SendBuffer) NextTimeout(rto time.Duration) (at time.Duration, ok bool) {
	for i := range b.segs {
		s := &b.segs[i]
		if s.sacked || s.abandoned {
			continue
		}
		var t time.Duration
		if !s.lost { // lost segments are due right away (t = 0)
			t = s.lastSent + rto
			if b.Deadline > 0 {
				if d := s.firstSent + b.Deadline; d < t {
					t = d
				}
			}
		}
		if !ok || t < at {
			at, ok = t, true
		}
	}
	return at, ok
}

// Unresolved reports whether any segment still awaits acknowledgment or
// abandonment (used to decide when a FIN'd stream is fully done).
func (b *SendBuffer) Unresolved() bool {
	for i := range b.segs {
		s := &b.segs[i]
		if !s.sacked && !s.abandoned {
			return true
		}
	}
	return false
}
