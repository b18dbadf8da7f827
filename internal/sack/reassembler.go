package sack

import (
	"time"

	"repro/internal/bufpool"
	"repro/internal/seqspace"
)

// Reassembler is the receiver side of the reliability micro-protocol:
// it buffers out-of-order segments, delivers in-order data, emits SACK
// blocks, and — under partial reliability — skips holes older than the
// configured deadline so delivery (and the cumulative ack) keeps moving
// without retransmission.
//
// The cumulative ack is authoritative release: once it passes a hole,
// the sender abandons the corresponding data, so partial reliability
// needs no extra wire signalling.
//
// What arrived is recorded in a seqspace.Received: its cumulative point
// is the next segment the application expects, and its ranges above
// that are exactly the segments held in the map. An arrival that is the
// next segment expected, with nothing buffered right behind it, goes
// straight to the ready queue without touching the map; when nothing is
// buffered at all — every arrival on a path that neither loses nor
// reorders — the record's own prediction costs two comparisons and
// touches no range either. Any other arrival is buffered and delivered
// once the cumulative point passes it.
//
// The in-order path delivers in runs. With nothing unread, the segment
// gets a pooled 2 KiB chunk (bufpool.GetChunk) of its own, so a reader
// that keeps up sees one chunk per segment. Behind unread data it is
// appended to a run buffer of bufpool.Size at the tail of the ready
// queue, so a reader that falls behind pays one Pop and one release per
// 64 KiB, not per segment. A run holds consecutive segments only:
// buffered segments (deliver) get a chunk each, and a skipped hole
// (OnDeadline, ForceFin) closes the run, so no chunk spans a hole.
//
// A reassembler built by NewUnordered serves a reliable-unordered
// stream: the same record drives the cumulative ack and the SACK blocks,
// so the sender retransmits exactly the missing segments, but every new
// segment goes to the ready queue the moment it arrives, in a chunk of
// its own (never a run: consecutive arrivals need not be consecutive
// segments). Nothing is buffered and nothing is ever skipped; a late
// retransmission is delivered like any other arrival.
//
// What Pop returns belongs to the application, which should hand it back
// with bufpool.PutChunk once consumed so the steady-state delivery path
// stays off the garbage collector; an unreleased chunk is merely a pool
// miss, never a leak.
type Reassembler struct {
	// SkipAfter, when non-zero, abandons the frontier hole once it has
	// been open this long (partial reliability). Zero never skips (full
	// reliability).
	SkipAfter time.Duration

	arrived    seqspace.Received // Cum: the next segment the app expects
	buf        map[seqspace.Seq][]byte
	bufBytes   int // payload bytes in buf
	readyQueue     // delivered, waiting for the application to Pop

	holeSince time.Duration // when the current frontier hole was first seen
	holeOpen  bool
	unordered bool // deliver each arrival at once (NewUnordered)

	finSeq  seqspace.Seq
	haveFin bool

	// Counters.
	DeliveredBytes int
	SkippedSegs    int
	DuplicateSegs  int
}

// NewReassembler returns a reassembler expecting the stream to begin at
// sequence number start (known from the connection handshake — it must
// not be inferred from arrivals, since the first packet may be lost).
// skipAfter == 0 selects full reliability (never skip a hole).
func NewReassembler(start seqspace.Seq, skipAfter time.Duration) *Reassembler {
	return &Reassembler{
		SkipAfter: skipAfter,
		arrived:   seqspace.ReceivedFrom(start),
		buf:       make(map[seqspace.Seq][]byte),
	}
}

// NewUnordered returns a reassembler for a reliable-unordered stream
// beginning at sequence number start: it delivers every new segment in
// arrival order, around any hole, and never skips one.
func NewUnordered(start seqspace.Seq) *Reassembler {
	return &Reassembler{arrived: seqspace.ReceivedFrom(start), unordered: true}
}

// OnData processes a data segment. fin marks the final segment of the
// stream. It returns true if the segment was new (not a duplicate or
// stale arrival). The payload is copied if it must be buffered.
func (r *Reassembler) OnData(now time.Duration, seq seqspace.Seq, payload []byte, fin bool) bool {
	if fin {
		r.finSeq = seq
		r.haveFin = true
	}
	from := r.arrived.Cum()
	if !r.arrived.Add(seq) {
		r.DuplicateSegs++
		return false
	}
	if r.unordered {
		r.push(chunkCopy(payload))
		r.DeliveredBytes += len(payload)
		return true
	}
	if r.arrived.Cum() == seq.Next() {
		// The next segment expected, and nothing buffered behind it to
		// deliver with it.
		r.pushRun(payload)
		r.DeliveredBytes += len(payload)
		return true
	}
	r.buf[seq] = chunkCopy(payload)
	r.bufBytes += len(payload)
	r.deliver(now, from)
	return true
}

// chunkCopy copies a segment payload into a pooled delivery chunk, or a
// plain allocation when the payload exceeds the chunk size class (large
// MSS profiles). Either way the result is released with bufpool.PutChunk,
// which drops non-pooled capacities harmlessly.
func chunkCopy(payload []byte) []byte {
	if len(payload) <= bufpool.ChunkSize {
		c := bufpool.GetChunk()
		return c[:copy(c, payload)]
	}
	return append([]byte(nil), payload...)
}

// deliver pushes the buffered segments from from up to the cumulative
// point, which has just moved over them, and maintains the
// frontier-hole timer.
func (r *Reassembler) deliver(now time.Duration, from seqspace.Seq) {
	for s := from; s != r.arrived.Cum(); s = s.Next() {
		p := r.buf[s]
		delete(r.buf, s)
		r.bufBytes -= len(p)
		r.push(p)
		r.DeliveredBytes += len(p)
	}
	// A hole exists if anything is buffered beyond the frontier.
	if len(r.arrived.Above()) > 0 {
		if !r.holeOpen {
			r.holeOpen = true
			r.holeSince = now
		}
	} else {
		r.holeOpen = false
	}
}

// readyQueue is a FIFO of delivered chunks — the one place a delivered
// chunk waits for the application. It rewinds when drained instead of
// slicing its array away, so a consumer that pops after every arrival
// costs no allocation per chunk.
type readyQueue struct {
	q     [][]byte
	head  int
	bytes int  // payload bytes pushed and not yet popped
	run   bool // the tail is a run buffer pushRun may extend
}

// push queues a delivered chunk and closes the run; an empty one (a
// bare FIN marker) has nothing to read and goes straight back to the
// pool.
func (f *readyQueue) push(p []byte) {
	f.run = false
	if len(p) == 0 {
		bufpool.PutChunk(p)
		return
	}
	f.q = append(f.q, p)
	f.bytes += len(p)
}

// pushRun queues the payload of the segment that follows everything
// queued: in a chunk of its own when nothing is unread, else appended to
// the tail's run buffer while it has room, else in a new run buffer. An
// empty payload (a bare FIN marker) has nothing to read and leaves the
// run as it is.
func (f *readyQueue) pushRun(payload []byte) {
	if len(payload) == 0 {
		return
	}
	if f.head == len(f.q) || len(payload) > bufpool.Size {
		f.push(chunkCopy(payload))
		return
	}
	if t := f.q[len(f.q)-1]; f.run && len(payload) <= cap(t)-len(t) {
		f.q[len(f.q)-1] = append(t, payload...)
		f.bytes += len(payload)
		return
	}
	b := bufpool.Get()
	f.push(b[:copy(b, payload)])
	f.run = true
}

// Pop returns the next delivered payload, if any: in order, or in
// arrival order from a reassembler built by NewUnordered.
func (f *readyQueue) Pop() ([]byte, bool) {
	if f.head == len(f.q) {
		return nil, false
	}
	p := f.q[f.head]
	f.q[f.head] = nil
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	f.bytes -= len(p)
	return p, true
}

// Unread returns the payload bytes delivered and not yet popped.
func (f *readyQueue) Unread() int { return f.bytes }

// CumAck returns the receiver's cumulative acknowledgment point: all
// data below it has been delivered or abandoned.
func (r *Reassembler) CumAck() seqspace.Seq { return r.arrived.Cum() }

// Blocks appends up to max SACK blocks describing buffered data above
// the cumulative ack, nearest-first, and returns the extended slice.
func (r *Reassembler) Blocks(dst []seqspace.Range, max int) []seqspace.Range {
	for _, rg := range r.arrived.Above() {
		if len(dst) >= max {
			break
		}
		dst = append(dst, rg)
	}
	return dst
}

// NextDeadline returns the instant at which the frontier hole will be
// skipped, or ok false if no skip is pending (no hole, or full
// reliability).
func (r *Reassembler) NextDeadline() (at time.Duration, ok bool) {
	if r.SkipAfter == 0 || !r.holeOpen {
		return 0, false
	}
	return r.holeSince + r.SkipAfter, true
}

// OnDeadline skips the frontier hole if its deadline has passed,
// delivering whatever buffered data follows it. Safe to call at any
// time.
func (r *Reassembler) OnDeadline(now time.Duration) {
	for {
		at, ok := r.NextDeadline()
		if !ok || now < at {
			return
		}
		r.skipTo(now, r.arrived.Above()[0].Lo)
	}
}

// skipTo abandons every hole below to and delivers what is buffered
// between and above them, a step per hole whatever the distance: each
// step passes one hole and the run of segments that ends it. A skip
// closes the ready queue's run, since it may deliver nothing itself.
func (r *Reassembler) skipTo(now time.Duration, to seqspace.Seq) {
	for r.arrived.Cum().Less(to) {
		next := to
		if above := r.arrived.Above(); len(above) > 0 && above[0].Lo.Less(to) {
			next = above[0].Lo
		}
		r.SkippedSegs += r.arrived.Cum().Distance(next)
		r.arrived.Pass(next)
		r.holeOpen, r.run = false, false
		r.deliver(now, next)
	}
}

// Finished reports whether a FIN has been seen and everything up to and
// including it has been delivered (or skipped).
func (r *Reassembler) Finished() bool {
	return r.haveFin && r.finSeq.Less(r.arrived.Cum())
}

// ForceFin terminates the stream at fin on the sender's authority (a
// forward-FIN/StreamReset): the stream ends at fin, and every hole at or
// below it is abandoned immediately — the sender has already given the
// data up, so waiting out the skip deadline would only delay delivery of
// whatever is buffered. Buffered segments beyond the frontier are still
// delivered in order. A fin below data already delivered is ignored.
func (r *Reassembler) ForceFin(now time.Duration, fin seqspace.Seq) {
	if r.haveFin && r.finSeq == fin && r.Finished() {
		return
	}
	r.finSeq = fin
	r.haveFin = true
	r.skipTo(now, fin.Next())
}

// Buffered returns the number of segments held for reassembly.
func (r *Reassembler) Buffered() int { return len(r.buf) }

// BufferedBytes returns the payload bytes held for reassembly: arrived
// out of order, not yet on the ready queue.
func (r *Reassembler) BufferedBytes() int { return r.bufBytes }
