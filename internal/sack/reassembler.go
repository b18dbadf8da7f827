package sack

import (
	"slices"
	"sort"
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
// that are exactly the segments held for reassembly. An arrival that is
// the next segment expected, with nothing buffered right behind it, goes
// straight to the ready queue; when nothing is buffered at all — every
// arrival on a path that neither loses nor reorders — the record's own
// prediction costs two comparisons and touches no range either. Any
// other arrival waits in the run store until the cumulative point passes
// it.
//
// The in-order path delivers in runs. With nothing unread, the segment
// gets a pooled 2 KiB chunk (bufpool.GetChunk) of its own, so a reader
// that keeps up sees one chunk per segment. Behind unread data it is
// appended to a run buffer of bufpool.Size at the tail of the ready
// queue, so a reader that falls behind pays one Pop and one release per
// 64 KiB, not per segment.
//
// Behind a hole the bytes wait by the run as well: the run store is a
// sequence-ordered list of runs, one per range of the record's Above,
// each holding its segments' payloads in order. An arrival that extends
// the newest run is an append, a retransmission inside the buffer
// touches the one or two runs next to it, a segment any distance ahead
// costs one run, and a filled hole moves the run behind it to the ready
// queue whole. A held segment takes a 2 KiB chunk of its own, so a lone
// out-of-order segment costs what an in-order one does. Under full
// reliability a run that grows to a page's worth of chunks (pageAfter)
// moves them into one bufpool.Size page, and its later segments fill
// pages, each delivered as one chunk; the last page of a delivered run
// becomes the ready queue's run, which the in-order path then extends.
// A run short of a page's worth holds what its chunks would, so short
// runs behind many holes cost what they always did: a page for a run of
// two would cost 16 times its chunks. A stream that skips holes keeps
// one chunk per segment: its held bytes count against a delivery bound
// in payload bytes (qtp's deliveryBound), and pages would let its
// memory outgrow that count. Either way a chunk holds consecutive
// segments only, and a skipped hole (OnDeadline, ForceFin) closes the
// ready queue's run, so no chunk spans a hole.
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
	runs       []run             // one per range of arrived.Above(), ascending
	spare      [][][]byte        // emptied chunk lists of delivered runs
	bufBytes   int               // payload bytes held in runs
	readyQueue                   // delivered, waiting for the application to Pop

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
	if !r.arrived.Add(seq) {
		r.DuplicateSegs++
		return false
	}
	if r.unordered {
		r.push(chunkCopy(payload))
		r.DeliveredBytes += len(payload)
		return true
	}
	if r.arrived.Cum().LessEq(seq) {
		r.hold(now, seq, payload)
		return true
	}
	// The next segment expected. If it closed the frontier hole, the run
	// it joined follows it.
	r.pushRun(payload)
	r.DeliveredBytes += len(payload)
	if r.arrived.Cum() != seq.Next() {
		r.deliver(now)
	}
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

// run is a range of segments held above the cumulative point and their
// payloads in sequence order. Each chunk holds consecutive segments of
// the range; an empty payload (a bare FIN marker) takes none.
type run struct {
	seqspace.Range
	chunks [][]byte
	loose  int // 2 KiB chunks at the end of chunks a page may take, at most
}

// pageAfter is how many 2 KiB chunks cost a page: a run that would hold
// more moves them into one.
const pageAfter = bufpool.Size / bufpool.ChunkSize

// paged reports whether held runs fill bufpool.Size pages: under full
// reliability only (see the type's doc).
func (r *Reassembler) paged() bool { return r.SkipAfter == 0 }

// add appends the payload of the segment at the run's Hi. Every segment
// takes a chunk of its own until, in a paged run, the chunks at the
// run's end would cost more than a page: then they and the segment move
// into one, and the run's later segments fill pages. A segment past the
// chunk size takes an allocation of its own (chunkCopy).
func (rn *run) add(p []byte, paged bool) {
	k := len(rn.chunks)
	switch {
	case len(p) == 0:
	case !paged || len(p) > bufpool.ChunkSize:
		rn.chunks = append(rn.chunks, chunkCopy(p))
		rn.loose = 0
	case k > 0 && cap(rn.chunks[k-1]) == bufpool.Size:
		if t := rn.chunks[k-1]; len(p) <= cap(t)-len(t) {
			rn.chunks[k-1] = append(t, p...)
		} else {
			b := bufpool.Get()
			rn.chunks = append(rn.chunks, b[:copy(b, p)])
		}
	case rn.loose < pageAfter-1:
		rn.chunks = append(rn.chunks, chunkCopy(p))
		rn.loose++
	default:
		// pageAfter chunks' worth fits a page: each holds at most
		// ChunkSize bytes.
		loose := rn.chunks[k-rn.loose:]
		b := bufpool.Get()[:0]
		for i, c := range loose {
			b = append(b, c...)
			bufpool.PutChunk(c)
			loose[i] = nil
		}
		rn.chunks = append(rn.chunks[:k-rn.loose], append(b, p...))
		rn.loose = 0
	}
}

// hold keeps the payload of seq, a new arrival above the cumulative
// point, in the run it extends, the two it joins or a run of its own,
// and opens the frontier-hole timer if it was not running.
func (r *Reassembler) hold(now time.Duration, seq seqspace.Seq, payload []byte) {
	r.bufBytes += len(payload)
	if !r.holeOpen {
		r.holeOpen = true
		r.holeSince = now
	}
	paged := r.paged()
	n := len(r.runs)
	if n > 0 && r.runs[n-1].Hi == seq {
		// The common case: the newest run grows.
		r.runs[n-1].add(payload, paged)
		r.runs[n-1].Hi = seq.Next()
		return
	}
	// i is the first run above seq; seq is new, so no run holds it.
	i := sort.Search(n, func(k int) bool { return seq.Less(r.runs[k].Lo) })
	left := i > 0 && r.runs[i-1].Hi == seq
	right := i < n && r.runs[i].Lo == seq.Next()
	switch {
	case left && right: // the last segment of a hole: join its two runs
		a, b := &r.runs[i-1], r.runs[i]
		a.add(payload, paged)
		a.chunks = append(a.chunks, b.chunks...)
		a.Hi, a.loose = b.Hi, b.loose
		r.recycle(b.chunks)
		copy(r.runs[i:], r.runs[i+1:])
		r.runs[n-1] = run{}
		r.runs = r.runs[:n-1]
	case left:
		r.runs[i-1].add(payload, paged)
		r.runs[i-1].Hi = seq.Next()
	case right:
		if len(payload) > 0 {
			r.runs[i].chunks = slices.Insert(r.runs[i].chunks, 0, chunkCopy(payload))
		}
		r.runs[i].Lo = seq
	default:
		var chunks [][]byte
		if k := len(r.spare); k > 0 {
			chunks, r.spare = r.spare[k-1], r.spare[:k-1]
		}
		r.runs = slices.Insert(r.runs, i, run{Range: seqspace.Range{Lo: seq, Hi: seq.Next()}, chunks: chunks})
		r.runs[i].add(payload, paged)
	}
}

// recycle keeps an emptied chunk list for a later run.
func (r *Reassembler) recycle(chunks [][]byte) {
	clear(chunks)
	r.spare = append(r.spare, chunks[:0])
}

// deliver moves every run the cumulative point has passed — it passes
// whole runs, and one at a time: the run whose hole closed or was
// skipped — to the ready queue, and maintains the frontier-hole timer.
// A delivered run's last page becomes the ready queue's run: it ends
// right below the cumulative point, where the next delivery starts.
func (r *Reassembler) deliver(now time.Duration) {
	n := 0
	for ; n < len(r.runs) && r.runs[n].Lo.Less(r.arrived.Cum()); n++ {
		chunks := r.runs[n].chunks
		for _, c := range chunks {
			r.push(c)
			r.bufBytes -= len(c)
			r.DeliveredBytes += len(c)
		}
		if k := len(chunks); k > 0 && r.paged() && cap(chunks[k-1]) == bufpool.Size {
			r.run = true
		}
		r.recycle(chunks)
	}
	if n > 0 {
		k := copy(r.runs, r.runs[n:])
		clear(r.runs[k:])
		r.runs = r.runs[:k]
	}
	// A hole exists if anything is buffered beyond the frontier.
	if len(r.runs) > 0 {
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
		r.deliver(now)
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
func (r *Reassembler) Buffered() int {
	n := 0
	for _, rn := range r.runs {
		n += rn.Len()
	}
	return n
}

// BufferedBytes returns the payload bytes held for reassembly: arrived
// out of order, not yet on the ready queue.
func (r *Reassembler) BufferedBytes() int { return r.bufBytes }
