package sack

import (
	"repro/internal/seqspace"
)

// UnorderedReceiver is the receiver side of a reliable-unordered stream:
// every new segment is released to the application the moment it
// arrives, so a hole never blocks the data behind it (no head-of-line
// blocking), while the record of what arrived still drives the
// cumulative ack so the sender retransmits exactly the missing
// segments. Late retransmissions are delivered like any other arrival —
// nothing is ever skipped, which is what distinguishes this mode from an
// expiring stream.
//
// Every new segment is copied into a pooled chunk of its own (never a
// run: consecutive arrivals need not be consecutive segments), which the
// application returns with bufpool.PutChunk.
type UnorderedReceiver struct {
	arrived seqspace.Received // Cum: the first segment not yet received
	readyQueue

	finSeq  seqspace.Seq
	haveFin bool

	// Counters.
	DeliveredBytes int
	DuplicateSegs  int
}

// NewUnorderedReceiver returns a receiver expecting the stream to begin
// at sequence number start.
func NewUnorderedReceiver(start seqspace.Seq) *UnorderedReceiver {
	return &UnorderedReceiver{arrived: seqspace.ReceivedFrom(start)}
}

// OnData processes a data segment, returning true if it was new. New
// segments are queued for immediate delivery regardless of ordering.
func (u *UnorderedReceiver) OnData(seq seqspace.Seq, payload []byte, fin bool) bool {
	if fin {
		u.finSeq = seq
		u.haveFin = true
	}
	// The cumulative ack advances only over segments actually received —
	// unordered is still fully reliable, so holes are never passed.
	if !u.arrived.Add(seq) {
		u.DuplicateSegs++
		return false
	}
	u.push(chunkCopy(payload))
	u.DeliveredBytes += len(payload)
	return true
}

// CumAck returns the first sequence number not yet received.
func (u *UnorderedReceiver) CumAck() seqspace.Seq { return u.arrived.Cum() }

// Finished reports whether a FIN has been seen and every segment up to
// and including it has been received.
func (u *UnorderedReceiver) Finished() bool {
	return u.haveFin && u.finSeq.Less(u.arrived.Cum())
}
