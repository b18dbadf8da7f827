// Package sack implements the selective-acknowledgment reliability
// micro-protocol (RFC 2018 semantics adapted to QTP): the sender-side
// scoreboard/retransmission buffer and the receiver-side reassembler.
//
// Reliability in QTP is negotiable. Full reliability retransmits until
// delivery; partial reliability retransmits only while data is younger
// than a deadline, with the receiver skipping stale holes (receiver-
// driven release, like PR-SCTP's effect without extra signalling: the
// receiver's cumulative ack is authoritative — once it passes a hole the
// sender abandons the data). A no-reliability stream resolves each
// segment once it is sent.
//
// Loss detection is one rule, whatever controller sets the rate: three
// SACKed segments above a hole declare it lost, and a retransmission is
// declared lost again only after something first sent after it has been
// delivered (see SendBuffer). The scoreboard has no time constant and
// no option for it.
//
// The package serves streams: qtp's one stream engine gives every
// stream a SendBuffer and a Reassembler (NewUnordered for an unordered
// stream), keyed by the stream's own sequence numbers, and resolves
// scoreboards against connection-level ack vectors through the conn
// number each segment remembers (Cut/OnConnSACK). A stream framed
// without the prefix is the case where the two spaces coincide.
//
// What bounds what: the SendBuffer is a ring indexed by sequence number
// under a min-tree, both sized by the largest flight the stream has had
// and never by the connection's age. A transmission, the next
// retransmission, the next timeout and the oldest unresolved segment
// each cost O(log flight) at most; an acknowledgment costs that per
// segment it newly resolves and per hole it leaves below the duplicate
// threshold. The SendBuffer is also the one store of the stream's bytes,
// from Write until the head passes them, in bufpool's 64 KiB pages (an
// empty store starts in a 2 KiB chunk). A segment is an offset and a
// length there: a byte is copied in once and out once per transmission.
// A store holds only the pages its flight and queue span, and a drained
// one holds none. The Reassembler records what arrived in a
// seqspace.Received, the cumulative ack and the ranges above it (and,
// ordered, holds those ranges' payloads too), and queues what is
// deliverable in pooled buffers: one 2 KiB chunk per segment while the
// application keeps up, and in-order runs of up to 64 KiB behind unread
// data (see Reassembler).
package sack

import (
	"math"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/seqspace"
)

// pageSize is the store's page, bufpool's Size. It holds any legal MSS
// (core's Normalize caps it at 65,000 bytes), so a segment spans at most
// two pages.
const pageSize = bufpool.Size

// segment is one sent-but-unresolved data frame in the scoreboard; its
// stream-level sequence number is its place in the ring, its payload the
// n bytes of the store from stream offset off.
type segment struct {
	off       int64
	n         int
	firstSent time.Duration
	lastSent  time.Duration
	retx      int
	conn      seqspace.Seq // connection-level sequence of the first transmission
	sacked    bool
	lost      bool // declared lost, waiting for retransmission
	abandoned bool // past the partial-reliability deadline
}

// The min-tree's key for a segment is the time of its last transmission;
// a segment declared lost is due at once and sorts before any time, a
// resolved one (SACKed or abandoned, or an empty slot) after every time.
const (
	keyLost     = time.Duration(math.MinInt64)
	keyResolved = time.Duration(math.MaxInt64)
)

func (s *segment) key() time.Duration {
	switch {
	case s.sacked || s.abandoned:
		return keyResolved
	case s.lost:
		return keyLost
	}
	return s.lastSent
}

// SendBuffer is the sender's scoreboard: it tracks outstanding segments,
// marks losses from SACK vectors, schedules retransmissions, and expires
// segments under partial reliability. The times handed to it must not run
// backwards.
//
// One loss rule serves every rate controller. A segment is lost once
// seqspace.DupThresh segments above it are SACKed. A segment already
// retransmitted is lost again only once the buffer has seen the delivery
// of a segment first sent after that retransmission (RACK's ordering,
// RFC 8985): a retransmission reuses its sequence number, so until then
// every ack may predate it and still show the hole. A delivery counts at
// the segment's first transmission, even if it was retransmitted since:
// whichever copy arrived was sent no earlier. The evidence is this
// buffer's own: a stream of a multi-stream
// connection learns only from the acks of its own segments.
type SendBuffer struct {
	// Deadline, when non-zero, abandons segments older than this
	// (partial reliability). Zero means full reliability.
	Deadline time.Duration

	// The flight [head, head+n) lives in ring, a power of two long,
	// segment q in slot q mod len(ring). due is a binary min-tree over the
	// slots' keys (leaf len(ring)+i for slot i, node k the smaller of nodes
	// 2k and 2k+1), so the first segment in sequence order whose key is at
	// most some v is one descent, whatever the flight.
	ring []segment
	due  []time.Duration
	head seqspace.Seq
	n    int
	// top holds the seqspace.DupThresh highest SACKed sequence numbers
	// still in the flight, ascending: with all of them known, every
	// unresolved segment below top[0] has DupThresh SACKed segments above
	// it.
	top []seqspace.Seq
	// The store: page i holds the stream offsets [base+i·pageSize,
	// base+(i+1)·pageSize), a chunk (only ever pages[0]) the last
	// ChunkSize of them. Bytes from cut to end are queued, not yet cut.
	pages          [][]byte
	base, cut, end int64

	cumAck seqspace.Seq
	// newest is the latest first transmission among the acknowledged
	// segments.
	newest time.Duration

	// Counters.
	Retransmits   int
	AbandonedSegs int
	AckedBytes    int
}

// NewSendBuffer returns a scoreboard. deadline == 0 selects full
// reliability.
func NewSendBuffer(deadline time.Duration) *SendBuffer {
	return &SendBuffer{Deadline: deadline}
}

// Write appends p to the store, queued for the segments Cut takes. It
// copies p; the caller's slice is free again once Write returns.
func (b *SendBuffer) Write(p []byte) {
	for len(p) > 0 {
		switch {
		case len(b.pages) == 0: // an empty store starts over at end, in a chunk
			b.pages = append(b.pages, bufpool.GetChunk())
			b.base = b.end - (pageSize - bufpool.ChunkSize)
		case b.end-b.base == int64(len(b.pages))*pageSize:
			b.pages = append(b.pages, bufpool.Get())
		}
		n := copy(b.at(b.end), p)
		b.end += int64(n)
		p = p[n:]
	}
}

// at returns the store from stream offset off to the end of its page.
func (b *SendBuffer) at(off int64) []byte {
	rel := off - b.base
	pg := b.pages[rel/pageSize]
	return pg[int(rel%pageSize)-(pageSize-len(pg)):]
}

// Queued returns the bytes written and not yet cut into a segment.
func (b *SendBuffer) Queued() int { return int(b.end - b.cut) }

// Cut takes the next segment, in sequence order, off the queued bytes:
// at most mss of them, none for a bare FIN. It registers the segment's
// first transmission at now and returns its length. seq orders it within
// its stream, conn is the connection-level number its frame header
// carries, against which OnConnSACK resolves it.
func (b *SendBuffer) Cut(now time.Duration, seq, conn seqspace.Seq, mss int) int {
	if b.ring == nil { // first segment
		b.cumAck, b.head = seq, seq
	} else if seq != b.head.Add(b.n) {
		panic("sack: Cut out of order")
	}
	if b.n == len(b.ring) {
		b.grow()
	}
	n := min(mss, b.Queued())
	b.n++
	*b.seg(seq) = segment{off: b.cut, n: n, firstSent: now, lastSent: now, conn: conn}
	b.cut += int64(n)
	b.update(seq)
	return n
}

// Add is Write and Cut of one whole payload, seq in both spaces, on a
// buffer with nothing queued.
func (b *SendBuffer) Add(now time.Duration, seq seqspace.Seq, payload []byte) {
	b.Write(payload)
	b.Cut(now, seq, seq, len(payload))
}

// Payload returns segment seq's bytes in the store, in two parts where it
// crosses a page edge (tail is empty otherwise). seq must be in the
// flight; the parts stay valid until an acknowledgment releases it.
func (b *SendBuffer) Payload(seq seqspace.Seq) (head, tail []byte) {
	s := b.seg(seq)
	if s.n == 0 {
		return nil, nil
	}
	if head = b.at(s.off); len(head) >= s.n {
		return head[:s.n], nil
	}
	return head, b.at(s.off + int64(len(head)))[:s.n-len(head)]
}

// grow doubles the ring (from nothing, to 16 slots) and re-seats the
// flight in it: once per doubling of the largest flight seen.
func (b *SendBuffer) grow() {
	old, size := *b, max(16, 2*len(b.ring))
	b.ring, b.due = make([]segment, size), make([]time.Duration, 2*size)
	for k := range b.due {
		b.due[k] = keyResolved
	}
	for k := 0; k < b.n; k++ {
		q := b.head.Add(k)
		*b.seg(q) = *old.seg(q)
		b.update(q)
	}
}

// slot returns the ring index of sequence number q, seg its segment.
func (b *SendBuffer) slot(q seqspace.Seq) int     { return int(uint32(q)) & (len(b.ring) - 1) }
func (b *SendBuffer) seg(q seqspace.Seq) *segment { return &b.ring[b.slot(q)] }

// update re-derives segment q's tree key after its state changed and
// repairs the nodes above it, stopping at the first that keeps its value.
func (b *SendBuffer) update(q seqspace.Seq) {
	k := len(b.ring) + b.slot(q)
	b.due[k] = b.ring[k-len(b.ring)].key()
	for k >>= 1; k > 0; k >>= 1 {
		m := min(b.due[2*k], b.due[2*k+1])
		if b.due[k] == m {
			break
		}
		b.due[k] = m
	}
}

// next returns the first segment in sequence order, at or after from,
// whose key is at most v: O(log flight). Slots outside the flight hold
// keyResolved and v is always below that, so only live segments match.
func (b *SendBuffer) next(from seqspace.Seq, v time.Duration) (seqspace.Seq, bool) {
	size := len(b.ring)
	if size == 0 || b.due[1] > v {
		return 0, false
	}
	// Climb from from's leaf through the subtrees to its right until one
	// holds a match. Past the last leaf, k+1 halves down to the root: the
	// flight wraps the ring, and the root's leftmost match is the first
	// wrapped one.
	k := size + b.slot(from)
	for b.due[k] > v {
		for k++; k&1 == 0; k >>= 1 {
		}
	}
	for k < size {
		if k <<= 1; b.due[k] > v {
			k++
		}
	}
	off := (k - size - b.slot(b.head)) & (size - 1) // distance from head
	if off < b.head.Distance(from) {
		return 0, false // the only matches precede from
	}
	return b.head.Add(off), true
}

// firstUnresolved returns the oldest segment neither SACKed nor abandoned.
func (b *SendBuffer) firstUnresolved() (seqspace.Seq, bool) {
	return b.next(b.head, keyResolved-1)
}

// Len returns the number of segments sent and not yet released.
func (b *SendBuffer) Len() int { return b.n }

// release drops the k oldest segments, returning the bytes among them
// that no SACK had resolved, and hands back to the pool every page below
// the oldest byte still held — all of them once nothing is. One step per
// segment and per page released.
func (b *SendBuffer) release(k int) (newly int) {
	for ; k > 0; k-- {
		s := b.seg(b.head)
		if !s.sacked {
			newly += s.n
			b.delivered(s)
		}
		// An empty slot reads as resolved.
		*s = segment{sacked: true}
		b.update(b.head)
		b.head = b.head.Next()
		b.n--
	}
	for len(b.top) > 0 && b.top[0].Less(b.head) {
		b.top = b.top[:copy(b.top, b.top[1:])]
	}
	lo := b.cut
	if b.n > 0 {
		lo = b.seg(b.head).off
	}
	done := len(b.pages)
	if lo < b.end {
		done = int((lo - b.base) / pageSize)
	}
	if done > 0 {
		for _, pg := range b.pages[:done] {
			bufpool.PutChunk(pg)
		}
		kept := copy(b.pages, b.pages[done:])
		clear(b.pages[kept:]) // pooled pages must not stay reachable from here
		b.pages = b.pages[:kept]
		b.base += int64(done) * pageSize
	}
	return newly
}

// mark SACKs the segments [lo, hi) of the flight, returning the bytes
// newly resolved. One step per segment the block covers.
func (b *SendBuffer) mark(lo, hi seqspace.Seq) (newly int) {
	for q := lo; q.Less(hi); q = q.Next() {
		s := b.seg(q)
		if s.sacked {
			continue
		}
		s.sacked, s.lost = true, false
		newly += s.n
		b.delivered(s)
		b.update(q)
		b.top = append(b.top, q)
		for i := len(b.top) - 1; i > 0 && q.Less(b.top[i-1]); i-- {
			b.top[i], b.top[i-1] = b.top[i-1], q
		}
		if len(b.top) > seqspace.DupThresh {
			b.top = b.top[:copy(b.top, b.top[1:])]
		}
	}
	return newly
}

// delivered records segment s's delivery as ordering evidence: some copy
// of s, sent no earlier than its first transmission, arrived.
func (b *SendBuffer) delivered(s *segment) {
	b.newest = max(b.newest, s.firstSent)
}

// OnSACK folds an acknowledgment vector into the scoreboard and returns
// the number of bytes newly resolved (cumulatively acked or SACKed). The
// loss rule reads the order of transmissions, not now.
func (b *SendBuffer) OnSACK(now time.Duration, cum seqspace.Seq, blocks []seqspace.Range) int {
	newly := 0
	// Advance the cumulative point.
	if b.cumAck.Less(cum) {
		b.cumAck = cum
		newly = b.release(min(b.n, b.head.Distance(cum)))
	}
	// Mark SACKed ranges, clipped to the flight.
	for _, blk := range blocks {
		newly += b.mark(seqspace.Max(blk.Lo, b.head), seqspace.Min(blk.Hi, b.head.Add(b.n)))
	}
	b.AckedBytes += newly
	b.markLost()
	return newly
}

// OnConnSACK folds a *connection-level* acknowledgment vector into the
// scoreboard: cum and blocks live in the connection sequence space that
// frame headers are stamped with, and each segment is matched through
// the conn number recorded by Cut. Segments whose conn precedes
// cum are released — the receiver either received them contiguously or
// echoed the sender's own ack floor, which only passes segments already
// resolved or abandoned here. It returns the bytes newly resolved.
func (b *SendBuffer) OnConnSACK(now time.Duration, cum seqspace.Seq, blocks []seqspace.Range) int {
	newly := 0
	// Release the prefix below the connection-level cumulative point.
	// Within one stream, connection numbers increase with stream order,
	// so the prefix property holds (and connRank may bisect).
	if k := b.connRank(cum); k > 0 {
		if next := b.head.Add(k); b.cumAck.Less(next) {
			b.cumAck = next
		}
		newly = b.release(k)
	}
	for _, blk := range blocks {
		newly += b.mark(b.head.Add(b.connRank(blk.Lo)), b.head.Add(b.connRank(blk.Hi)))
	}
	b.AckedBytes += newly
	b.markLost()
	return newly
}

// connRank returns how many segments of the flight have a connection
// number preceding c.
func (b *SendBuffer) connRank(c seqspace.Seq) int {
	return sort.Search(b.n, func(i int) bool { return !b.seg(b.head.Add(i)).conn.Less(c) })
}

// markLost applies the loss rule (see SendBuffer): a segment is lost once
// seqspace.DupThresh segments above it are SACKed and, if it was
// retransmitted, once a segment first sent after its last transmission
// was delivered. The loop visits only the holes of the acknowledged span,
// one descent each.
func (b *SendBuffer) markLost() {
	if len(b.top) < seqspace.DupThresh {
		return
	}
	for q, ok := b.firstUnresolved(); ok && q.Less(b.top[0]); q, ok = b.next(q.Next(), keyResolved-1) {
		s := b.seg(q)
		if s.lost || (s.retx > 0 && b.newest <= s.lastSent) {
			continue
		}
		s.lost = true
		b.update(q)
	}
}

// MinUnresolvedConn returns the connection-level sequence of the oldest
// segment still awaiting acknowledgment or abandonment; ok is false when
// everything is resolved. It is the stream's contribution to the ack
// floor senders stamp in the stream prefix of data frames.
func (b *SendBuffer) MinUnresolvedConn() (conn seqspace.Seq, ok bool) {
	q, ok := b.firstUnresolved()
	if !ok {
		return 0, false
	}
	return b.seg(q).conn, true
}

// NextRetransmitSeg returns the oldest segment due for retransmission —
// declared lost, or unacknowledged for longer than rto — and its length,
// marking it retransmitted at now; Payload has the bytes its first
// transmission carried. Under partial reliability, segments older than
// the deadline are abandoned instead of returned. ok is false when
// nothing is due. Both sequence spaces of the segment are returned: seq
// within the stream and conn at the connection level (a retransmission
// reuses the original connection number, so rate control keeps seeing
// one sequence per first transmission).
func (b *SendBuffer) NextRetransmitSeg(now time.Duration, rto time.Duration) (seq, conn seqspace.Seq, n int, ok bool) {
	// Comparisons are inclusive so a wake-up scheduled from NextTimeout
	// at exactly the boundary finds the work ready.
	if b.Deadline > 0 {
		// First transmissions are in time order: what is past the deadline
		// is the oldest unresolved. One turn per segment abandoned.
		for q, ok := b.firstUnresolved(); ok && now-b.seg(q).firstSent >= b.Deadline; q, ok = b.firstUnresolved() {
			s := b.seg(q)
			s.abandoned, s.lost = true, false
			b.AbandonedSegs++
			b.update(q)
		}
	}
	limit := keyLost
	if rto > 0 {
		limit = now - rto
	}
	q, ok := b.next(b.head, limit)
	if !ok {
		return 0, 0, 0, false
	}
	s := b.seg(q)
	s.lost, s.lastSent = false, now
	s.retx++
	b.Retransmits++
	b.update(q)
	return q, s.conn, s.n, true
}

// NextTimeout returns the earliest instant at which NextRetransmitSeg
// would have work to do — immediately for segments already declared lost,
// otherwise at RTO expiry or the partial-reliability deadline. ok is
// false if the buffer holds nothing unresolved.
func (b *SendBuffer) NextTimeout(rto time.Duration) (at time.Duration, ok bool) {
	if !b.Unresolved() {
		return 0, false
	}
	if b.due[1] == keyLost {
		return 0, true // lost segments are due right away
	}
	at = b.due[1] + rto
	if b.Deadline > 0 {
		// None is lost, so the oldest unresolved segment was sent first.
		q, _ := b.firstUnresolved()
		at = min(at, b.seg(q).firstSent+b.Deadline)
	}
	return at, true
}

// Unresolved reports whether any segment still awaits acknowledgment or
// abandonment (used to decide when a FIN'd stream is fully done).
func (b *SendBuffer) Unresolved() bool {
	return len(b.due) > 0 && b.due[1] != keyResolved
}
