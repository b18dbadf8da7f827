package sack

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/seqspace"
)

// Model-based property test: drive a SendBuffer/Reassembler pair through
// randomized loss, reordering, duplication and feedback schedules and
// assert the end-to-end reliability invariants that the unit tests only
// probe pointwise:
//
//  1. full reliability delivers every byte exactly once, in order;
//  2. the sender's buffer drains (no leaked segments);
//  3. the receiver's cumulative ack never exceeds the sender's nextSeq;
//  4. under partial reliability, everything delivered is a prefix-
//     respecting subsequence (no duplication, no reordering) and young
//     segments are never abandoned;
//  5. an unordered reassembler (the last 30 trials) delivers every byte
//     exactly once, in any order, and skips nothing.
func TestReliabilityModelCheck(t *testing.T) {
	for trial := 0; trial < 90; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		unordered := trial >= 60
		full := trial%2 == 0 || unordered
		deadline := time.Duration(0)
		if !full {
			deadline = 80 * time.Millisecond
		}
		sb := NewSendBuffer(deadline)
		ra := NewReassembler(0, deadline+deadline/2)
		switch {
		case unordered:
			ra = NewUnordered(0)
		case full:
			ra = NewReassembler(0, 0)
		}

		const n = 120
		now := time.Duration(0)
		type inflight struct {
			seq     seqspace.Seq
			payload []byte
			at      time.Duration
		}
		var network []inflight // packets in flight, delivered out of order

		deliverSome := func() {
			// Deliver a random subset of the network, possibly reordered,
			// possibly duplicated, dropping ~20%.
			rng.Shuffle(len(network), func(i, j int) {
				network[i], network[j] = network[j], network[i]
			})
			kept := network[:0]
			for _, p := range network {
				switch {
				case rng.Float64() < 0.2: // lost
				case rng.Float64() < 0.1: // duplicated
					ra.OnData(now, p.seq, p.payload, int(p.seq) == n-1)
					ra.OnData(now, p.seq, p.payload, int(p.seq) == n-1)
				default:
					ra.OnData(now, p.seq, p.payload, int(p.seq) == n-1)
				}
			}
			network = kept
		}

		// Invariant 3, at every acknowledgment: next is the sender's
		// next sequence number.
		ack := func(next int) {
			if got := ra.CumAck(); seqspace.Seq(next).Less(got) {
				t.Fatalf("trial %d: cumack %d beyond the sender's next %d", trial, got, next)
			}
			sb.OnSACK(now, ra.CumAck(), ra.Blocks(nil, 16))
		}
		for i := 0; i < n; i++ {
			now += 2 * time.Millisecond
			payload := pay(i)
			sb.Add(now, seqspace.Seq(i), payload)
			network = append(network, inflight{seqspace.Seq(i), payload, now})
			if rng.Intn(4) == 0 {
				deliverSome()
				ack(i + 1)
			}
		}
		// Drain: alternate feedback and retransmission rounds.
		for round := 0; round < 200; round++ {
			now += 10 * time.Millisecond
			deliverSome()
			ra.OnDeadline(now)
			ack(n)
			for {
				seq, _, _, ok := sb.NextRetransmitSeg(now, 100*time.Millisecond)
				if !ok {
					break
				}
				if rng.Float64() < 0.15 {
					continue // retransmission lost too
				}
				network = append(network, inflight{seq, payloadOf(sb, seq), now})
			}
			if !sb.Unresolved() && len(network) == 0 {
				break
			}
		}

		// Let any remaining partial-reliability hole timers expire so the
		// receiver releases everything it buffered. Each hole gets its
		// own grace period, so chained holes need successive expiries.
		for i := 0; i < n && ra.Buffered() > 0; i++ {
			now += time.Second
			ra.OnDeadline(now)
		}

		// Invariant 3.
		if got := ra.CumAck(); seqspace.Seq(n).Less(got) {
			t.Fatalf("trial %d: cumack %d beyond stream end %d", trial, got, n)
		}
		// Invariants 1, 2, 4.
		if sb.Unresolved() {
			t.Fatalf("trial %d: send buffer did not drain (full=%v)", trial, full)
		}
		prev := -1
		delivered := 0
		seen := make([]bool, n)
		for {
			p, ok := ra.Pop()
			if !ok {
				break
			}
			for _, idx := range runIndices(t, p) {
				if seen[idx] || (!unordered && idx <= prev) {
					t.Fatalf("trial %d: out-of-order/duplicate delivery %d after %d", trial, idx, prev)
				}
				seen[idx], prev = true, idx
				delivered++
			}
		}
		if full && delivered != n {
			t.Fatalf("trial %d: full reliability delivered %d of %d (unordered=%v)", trial, delivered, n, unordered)
		}
		if full && (ra.SkippedSegs != 0 || !ra.Finished()) {
			t.Fatalf("trial %d: full reliability skipped %d segments, finished %v (unordered=%v)",
				trial, ra.SkippedSegs, ra.Finished(), unordered)
		}
		if !full {
			// Liveness: after the deadlines expire nothing stays in
			// limbo — every buffered segment was either delivered or
			// released past a skipped hole. (The cumulative ack may stop
			// short of n if the stream's tail was wholly lost: a receiver
			// cannot skip past data it never learned about; teardown is
			// the Close frame's job, not the reassembler's.)
			if ra.Buffered() != 0 {
				t.Fatalf("trial %d: %d segments stuck behind expired holes",
					trial, ra.Buffered())
			}
		}
	}
}

// runIndices decodes a delivered chunk of the "seg-0042" payloads
// produced by pay() — one segment, or a run of them — and checks the
// run contract: at most bufpool.Size bytes, and consecutive segments
// only, so no chunk spans a skipped hole.
func runIndices(t *testing.T, p []byte) []int {
	t.Helper()
	if len(p) == 0 || len(p) > bufpool.Size || len(p)%len(pay(0)) != 0 {
		t.Fatalf("chunk of %d bytes: not a run of whole segments of at most %d", len(p), bufpool.Size)
	}
	var idx []int
	for off := 0; off < len(p); off += len(pay(0)) {
		i, err := strconv.Atoi(string(p[off+4 : off+len(pay(0))]))
		if err != nil {
			t.Fatalf("bad payload %q: %v", p[off:off+len(pay(0))], err)
		}
		if n := len(idx); n > 0 && i != idx[n-1]+1 {
			t.Fatalf("chunk holds segment %d after %d: a run spans a hole", i, idx[n-1])
		}
		idx = append(idx, i)
	}
	return idx
}

// refSegment and refSendBuffer are the slice-walking scoreboard this
// package shipped before the seq-indexed ring: every query walks the
// flight front to back. It is kept as the reference model — simple
// enough to be obviously right — that TestSendBufferDifferential drives
// in lockstep with the real SendBuffer. Its store is the same as the
// real one's, offsets and lengths into the stream's bytes, kept plainly:
// one slice of every byte ever written.
type refSegment struct {
	seq, conn           seqspace.Seq
	off, n              int
	firstSent, lastSent time.Duration
	sacked, lost        bool
	abandoned           bool
	retx                int
}

type refSendBuffer struct {
	Deadline time.Duration

	data    []byte // every byte written; data[cut:] is queued
	cut     int
	segs    []refSegment
	cumAck  seqspace.Seq
	started bool
	nextSeq seqspace.Seq
	// newest is the latest first transmission delivered: the ordering
	// evidence of the loss rule.
	newest time.Duration

	Retransmits, AbandonedSegs, AckedBytes int
}

func (b *refSendBuffer) Write(p []byte) { b.data = append(b.data, p...) }

func (b *refSendBuffer) Queued() int { return len(b.data) - b.cut }

func (b *refSendBuffer) Cut(now time.Duration, seq, conn seqspace.Seq, mss int) int {
	if !b.started {
		b.started = true
		b.cumAck = seq
	} else if seq != b.nextSeq {
		panic("ref: Cut out of order")
	}
	b.nextSeq = seq.Next()
	n := min(mss, b.Queued())
	b.segs = append(b.segs, refSegment{seq: seq, conn: conn, off: b.cut, n: n, firstSent: now, lastSent: now})
	b.cut += n
	return n
}

// payload returns segment s's bytes.
func (b *refSendBuffer) payload(s *refSegment) []byte { return b.data[s.off : s.off+s.n] }

func (b *refSendBuffer) OnSACK(now time.Duration, cum seqspace.Seq, blocks []seqspace.Range) int {
	newly := 0
	if b.cumAck.Less(cum) {
		b.cumAck = cum
		i := 0
		for i < len(b.segs) && b.segs[i].seq.Less(cum) {
			if s := &b.segs[i]; !s.sacked {
				newly += s.n
				b.delivered(s)
			}
			i++
		}
		b.segs = b.segs[:copy(b.segs, b.segs[i:])]
	}
	for _, blk := range blocks {
		for i := range b.segs {
			s := &b.segs[i]
			if blk.Contains(s.seq) && !s.sacked {
				s.sacked = true
				s.lost = false
				newly += s.n
				b.delivered(s)
			}
		}
	}
	b.AckedBytes += newly
	b.markLost()
	return newly
}

func (b *refSendBuffer) OnConnSACK(now time.Duration, cum seqspace.Seq, blocks []seqspace.Range) int {
	newly := 0
	i := 0
	for i < len(b.segs) && b.segs[i].conn.Less(cum) {
		if s := &b.segs[i]; !s.sacked {
			newly += s.n
			b.delivered(s)
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
				newly += s.n
				b.delivered(s)
			}
		}
	}
	b.AckedBytes += newly
	b.markLost()
	return newly
}

// delivered notes segment s's delivery; whichever copy arrived was sent
// no earlier than its first transmission.
func (b *refSendBuffer) delivered(s *refSegment) {
	if s.firstSent > b.newest {
		b.newest = s.firstSent
	}
}

func (b *refSendBuffer) markLost() {
	dt := seqspace.DupThresh
	sackedAbove := 0
	for i := len(b.segs) - 1; i >= 0; i-- {
		s := &b.segs[i]
		if s.sacked {
			sackedAbove++
			continue
		}
		if sackedAbove >= dt && !s.lost && !s.abandoned {
			if s.retx > 0 && b.newest <= s.lastSent {
				continue // nothing sent after the retransmission has arrived
			}
			s.lost = true
		}
	}
}

func (b *refSendBuffer) MinUnresolvedConn() (seqspace.Seq, bool) {
	for i := range b.segs {
		if s := &b.segs[i]; !s.sacked && !s.abandoned {
			return s.conn, true
		}
	}
	return 0, false
}

func (b *refSendBuffer) NextRetransmitSeg(now, rto time.Duration) (seq, conn seqspace.Seq, payload []byte, ok bool) {
	for i := range b.segs {
		s := &b.segs[i]
		if s.sacked || s.abandoned {
			continue
		}
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
			return s.seq, s.conn, b.payload(s), true
		}
	}
	return 0, 0, nil, false
}

func (b *refSendBuffer) NextTimeout(rto time.Duration) (at time.Duration, ok bool) {
	for i := range b.segs {
		s := &b.segs[i]
		if s.sacked || s.abandoned {
			continue
		}
		var t time.Duration
		if !s.lost {
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

func (b *refSendBuffer) Unresolved() bool {
	_, ok := b.MinUnresolvedConn()
	return ok
}

// TestSendBufferDifferential drives the reference model and the real
// scoreboard with the same seeded random operation sequences — first
// transmissions, stream-level and connection-level acknowledgment
// vectors whose blocks are out of order, overlapping, inverted, stale or
// beyond the flight, retransmission polls and every query — and demands
// equal return values and equal counters after every step. The grid
// covers full and partial reliability and sequence spaces that wrap
// through 2^32 mid-run. Writes are random bytes of random sizes, from
// none to a whole page, and segments are cut from them with random
// MSSs, so they cross page edges and start in the small first page of an
// emptied store; the caller's slice is overwritten as soon as Write
// returns, and a retransmission must still carry the bytes first sent.
func TestSendBufferDifferential(t *testing.T) {
	runSendBufferDifferential(t, 1, 48)
}

// TestSendBufferPairDifferential interleaves two scoreboards, each in
// lockstep with its own reference model, over the one page pool
// (bufpool's): a page handed back while its buffer still holds a segment
// in it is refilled by the other buffer, and shows up as wrong bytes.
func TestSendBufferPairDifferential(t *testing.T) {
	runSendBufferDifferential(t, 2, 12)
}

// diffLane is one scoreboard under the differential test, its reference
// model, and the numbers its next first transmission takes.
type diffLane struct {
	real           *SendBuffer
	ref            *refSendBuffer
	next, nextConn seqspace.Seq
	started        bool
}

func runSendBufferDifferential(t *testing.T, lanes, trials int) {
	rtos := []time.Duration{0, 20 * time.Millisecond, 50 * time.Millisecond}
	retx, abandoned, peak := 0, 0, 0
	noise := make([]byte, 2*pageSize)
	rand.New(rand.NewSource(999)).Read(noise)
	scratch := make([]byte, pageSize)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var deadline time.Duration
		if trial&1 != 0 {
			deadline = 60 * time.Millisecond
		}
		seq, conn := seqspace.Seq(1), seqspace.Seq(1)
		if trial&4 != 0 {
			seq, conn = seqspace.Seq(1<<32-150), seqspace.Seq(1<<32-400)
		}
		// Some trials let the flight grow large so the ring grows and
		// wraps; the rest stay near empty, where release-everything and
		// ack-beyond-the-flight cases live.
		addBias := 3 + trial%5

		ls := make([]diffLane, lanes)
		for k := range ls {
			ls[k] = diffLane{real: NewSendBuffer(deadline), ref: &refSendBuffer{Deadline: deadline},
				next: seq, nextConn: conn}
		}
		now := time.Duration(0)

		randBlocks := func(lo, hi seqspace.Seq) []seqspace.Range {
			span := lo.Distance(hi) + 12
			blocks := make([]seqspace.Range, rng.Intn(5))
			for i := range blocks {
				l := lo.Add(rng.Intn(span) - 6)
				blocks[i] = seqspace.Range{Lo: l, Hi: l.Add(rng.Intn(9) - 1)} // -1: inverted, 0: empty
			}
			return blocks
		}
		check := func(step int, what string, l *diffLane) {
			t.Helper()
			real, ref := l.real, l.ref
			if real.Len() != len(ref.segs) || real.cumAck != ref.cumAck {
				t.Fatalf("trial %d step %d after %s: Len/cumAck = %d/%d, want %d/%d",
					trial, step, what, real.Len(), real.cumAck, len(ref.segs), ref.cumAck)
			}
			if real.Unresolved() != ref.Unresolved() {
				t.Fatalf("trial %d step %d after %s: Unresolved = %v", trial, step, what, real.Unresolved())
			}
			gc, gok := real.MinUnresolvedConn()
			wc, wok := ref.MinUnresolvedConn()
			if gc != wc || gok != wok {
				t.Fatalf("trial %d step %d after %s: MinUnresolvedConn = %d,%v want %d,%v",
					trial, step, what, gc, gok, wc, wok)
			}
			for _, rto := range rtos {
				ga, gok := real.NextTimeout(rto)
				wa, wok := ref.NextTimeout(rto)
				if ga != wa || gok != wok {
					t.Fatalf("trial %d step %d after %s: NextTimeout(%v) = %v,%v want %v,%v",
						trial, step, what, rto, ga, gok, wa, wok)
				}
			}
			if real.Retransmits != ref.Retransmits || real.AbandonedSegs != ref.AbandonedSegs ||
				real.AckedBytes != ref.AckedBytes {
				t.Fatalf("trial %d step %d after %s: counters %d/%d/%d, want %d/%d/%d", trial, step, what,
					real.Retransmits, real.AbandonedSegs, real.AckedBytes,
					ref.Retransmits, ref.AbandonedSegs, ref.AckedBytes)
			}
			if real.Queued() != ref.Queued() {
				t.Fatalf("trial %d step %d after %s: Queued = %d, want %d", trial, step, what, real.Queued(), ref.Queued())
			}
			// The oldest segment shares its page with released ones: the
			// first to see a page handed back too early.
			if len(ref.segs) > 0 && !bytes.Equal(payloadOf(real, real.head), ref.payload(&ref.segs[0])) {
				t.Fatalf("trial %d step %d after %s: oldest segment's payload changed", trial, step, what)
			}
			if got, want := len(real.pages), spanned(real); got != want {
				t.Fatalf("trial %d step %d after %s: %d pages held, the bytes held span %d (flight %d, %d queued)",
					trial, step, what, got, want, real.Len(), real.Queued())
			}
		}

		for step := 0; step < 4000*lanes; step++ {
			l := &ls[rng.Intn(lanes)]
			real, ref := l.real, l.ref
			now += time.Duration(rng.Intn(3000/lanes)) * time.Microsecond
			switch op := rng.Intn(10); {
			case op < addBias || !l.started:
				l.started = true
				// Now and then the next segment waits for more bytes.
				if real.Queued() == 0 || rng.Intn(2) == 0 {
					// Mostly frame-sized, now and then up to a whole page,
					// now and then empty.
					size := 1 + rng.Intn(1400)
					switch rng.Intn(64) {
					case 0:
						size = 1 + rng.Intn(pageSize)
					case 1, 2:
						size = 0
					}
					payload := scratch[:size]
					copy(payload, noise[rng.Intn(pageSize):])
					real.Write(payload)
					ref.Write(payload)
					clear(payload) // the caller reuses its buffer
				}
				// Mostly the default MSS, now and then the largest legal
				// one; nothing queued cuts a bare FIN.
				mss := 1400
				if rng.Intn(8) == 0 {
					mss = 1 + rng.Intn(65000)
				}
				g, w := real.Cut(now, l.next, l.nextConn, mss), ref.Cut(now, l.next, l.nextConn, mss)
				if g != w {
					t.Fatalf("trial %d step %d: Cut(%d) = %d, want %d", trial, step, mss, g, w)
				}
				l.next = l.next.Next()
				l.nextConn = l.nextConn.Add(1 + rng.Intn(3)) // other streams take numbers in between
				check(step, "Cut", l)
			case op < 7:
				cum := ref.cumAck.Add(rng.Intn(12) - 3)
				if l.next.Next().Less(cum) {
					cum = l.next.Next() // at most one past the flight
				}
				lo := ref.cumAck
				if len(ref.segs) > 0 {
					lo = ref.segs[0].seq
				}
				blocks := randBlocks(lo, l.next)
				if rng.Intn(3) == 0 {
					blocks = nil // the per-stream tail carries a cum only
				}
				g, w := real.OnSACK(now, cum, blocks), ref.OnSACK(now, cum, blocks)
				if g != w {
					t.Fatalf("trial %d step %d: OnSACK(%d, %v) = %d, want %d", trial, step, cum, blocks, g, w)
				}
				check(step, "OnSACK", l)
			case op < 9:
				lo := l.nextConn
				if len(ref.segs) > 0 {
					lo = ref.segs[0].conn
				}
				cum := lo.Add(rng.Intn(14) - 3)
				blocks := randBlocks(lo, l.nextConn)
				g, w := real.OnConnSACK(now, cum, blocks), ref.OnConnSACK(now, cum, blocks)
				if g != w {
					t.Fatalf("trial %d step %d: OnConnSACK(%d, %v) = %d, want %d", trial, step, cum, blocks, g, w)
				}
				check(step, "OnConnSACK", l)
			default:
				rto := rtos[rng.Intn(len(rtos))]
				for k := 0; k < 1+rng.Intn(3); k++ {
					gs, gc, gn, gok := real.NextRetransmitSeg(now, rto)
					ws, wc, wp, wok := ref.NextRetransmitSeg(now, rto)
					var gp []byte
					if gok {
						gp = payloadOf(real, gs)
					}
					if gs != ws || gc != wc || gok != wok || gn != len(wp) || !bytes.Equal(gp, wp) {
						t.Fatalf("trial %d step %d: NextRetransmitSeg(%v) = %d,%d,%v (%d B) want %d,%d,%v (%d B), payloads equal: %v",
							trial, step, rto, gs, gc, gok, len(gp), ws, wc, wok, len(wp), bytes.Equal(gp, wp))
					}
					check(step, "NextRetransmitSeg", l)
				}
			}
			peak = max(peak, len(ref.segs))
		}
		for _, l := range ls {
			retx += l.ref.Retransmits
			abandoned += l.ref.AbandonedSegs
		}
	}
	// The sequences must reach the interesting states, or equality proves
	// little.
	t.Logf("%d retransmissions, %d abandoned, peak flight %d", retx, abandoned, peak)
	if retx < 1000 || abandoned < 1000 || peak < 300 {
		t.Fatalf("weak coverage: %d retransmissions, %d abandoned, peak flight %d", retx, abandoned, peak)
	}
}
