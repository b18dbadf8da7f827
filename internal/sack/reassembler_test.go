package sack

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/seqspace"
)

// refReassembler is the Reassembler before the in-order path, with its
// own cumulative ack and interval set: every arrival is recorded in the
// set and the map, and advance moves it to the ready queue, one chunk per
// segment. OnDeadline, ForceFin and the accessors that read the
// cumulative ack or the set are copied too, so the reference runs only
// its own code; the other read-only accessors are shared. pushed logs
// each segment advance delivered, in delivery order, empty ones
// included, so a comparison can tell which segments a chunk of the real
// Reassembler holds.
type refReassembler struct {
	*Reassembler
	cumAck   seqspace.Seq
	received seqspace.IntervalSet
	pushed   []refPush
}

func newRefReassembler(start seqspace.Seq, skip time.Duration) *refReassembler {
	return &refReassembler{Reassembler: NewReassembler(start, skip), cumAck: start}
}

func (r *refReassembler) CumAck() seqspace.Seq { return r.cumAck }

func (r *refReassembler) Blocks(dst []seqspace.Range, max int) []seqspace.Range {
	for _, rg := range r.received.Ranges() {
		if len(dst) >= max {
			break
		}
		dst = append(dst, rg)
	}
	return dst
}

func (r *refReassembler) Finished() bool {
	return r.haveFin && r.finSeq.Less(r.cumAck)
}

type refPush struct {
	seq seqspace.Seq
	n   int
}

func (r *refReassembler) OnData(now time.Duration, seq seqspace.Seq, payload []byte, fin bool) bool {
	if fin {
		r.finSeq = seq
		r.haveFin = true
	}
	if seq.Less(r.cumAck) || r.received.Contains(seq) {
		r.DuplicateSegs++
		return false
	}
	r.received.AddSeq(seq)
	r.buf[seq] = chunkCopy(payload)
	r.bufBytes += len(payload)
	r.advance(now)
	return true
}

func (r *refReassembler) advance(now time.Duration) {
	for r.received.Contains(r.cumAck) {
		p := r.buf[r.cumAck]
		delete(r.buf, r.cumAck)
		r.bufBytes -= len(p)
		r.pushed = append(r.pushed, refPush{r.cumAck, len(p)})
		r.push(p)
		r.DeliveredBytes += len(p)
		r.cumAck = r.cumAck.Next()
	}
	r.received.RemoveBefore(r.cumAck)
	if r.received.Len() > 0 {
		if !r.holeOpen {
			r.holeOpen = true
			r.holeSince = now
		}
	} else {
		r.holeOpen = false
	}
}

func (r *refReassembler) OnDeadline(now time.Duration) {
	for {
		at, ok := r.NextDeadline()
		if !ok || now < at {
			return
		}
		next := r.received.Min()
		r.SkippedSegs += r.cumAck.Distance(next)
		r.cumAck = next
		r.holeOpen = false
		r.advance(now)
	}
}

func (r *refReassembler) ForceFin(now time.Duration, fin seqspace.Seq) {
	if r.haveFin && r.finSeq == fin && r.Finished() {
		return
	}
	r.finSeq = fin
	r.haveFin = true
	end := fin.Next()
	if end.Less(r.cumAck) || end == r.cumAck {
		return
	}
	for r.cumAck.Less(end) {
		if r.received.Contains(r.cumAck) {
			r.advance(now)
			continue
		}
		next := end
		if r.received.Len() > 0 {
			if min := r.received.Min(); min.Less(next) {
				next = min
			}
		}
		r.SkippedSegs += r.cumAck.Distance(next)
		r.cumAck = next
		r.holeOpen = false
	}
	r.advance(now)
}

// TestReassemblerInOrderDifferential drives the Reassembler and
// refReassembler through the same seeded schedules — in-order runs,
// held-back and reordered segments, duplicates, a FIN, skip deadlines
// and a forced FIN, from a start near the sequence wrap — and compares
// every observable after every step. The reader drains both queues
// after a random half of the steps, so runs build up behind unread data
// and meet the skips; a drain compares the popped streams and checks
// that each chunk is a run of consecutive segments.
func TestReassemblerInOrderDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := seqspace.Seq(rng.Uint32())
		if seed%4 == 0 {
			start = seqspace.Seq(1<<32 - 50)
		}
		skip := time.Duration(0)
		if seed%2 == 1 {
			skip = time.Duration(1+rng.Intn(20)) * time.Millisecond
		}
		got, ref := NewReassembler(start, skip), newRefReassembler(start, skip)
		reader := rand.New(rand.NewSource(^seed))
		payloads := map[seqspace.Seq][]byte{}
		payload := func(s seqspace.Seq) []byte {
			p, ok := payloads[s]
			if !ok {
				p = make([]byte, rng.Intn(64))
				rng.Read(p)
				payloads[s] = p
			}
			return p
		}
		next := start           // next sequence the sender would send
		var held []seqspace.Seq // sent, not yet arrived
		var now time.Duration
		deliver := func(step int, s seqspace.Seq, fin bool) {
			p := payload(s)
			a, b := got.OnData(now, s, p, fin), ref.OnData(now, s, p, fin)
			if a != b {
				t.Fatalf("seed %d step %d: OnData(%d) = %v, reference %v", seed, step, s, a, b)
			}
		}
		for step := 0; step < 400; step++ {
			now += time.Duration(rng.Intn(3)) * time.Millisecond
			switch op := rng.Intn(100); {
			case op < 45: // a run, most of it in order
				for n := 1 + rng.Intn(8); n > 0; n-- {
					s := next
					next = next.Next()
					if rng.Intn(8) == 0 {
						held = append(held, s)
						continue
					}
					deliver(step, s, false)
				}
			case op < 65 && len(held) > 0: // a held segment arrives late
				i := rng.Intn(len(held))
				s := held[i]
				held = append(held[:i], held[i+1:]...)
				deliver(step, s, false)
			case op < 75: // a duplicate of anything sent
				if d := start.Distance(next); d > 0 {
					deliver(step, start.Add(rng.Intn(d)), false)
				}
			case op < 88: // time passes; skip deadlines fire
				now += time.Duration(rng.Intn(15)) * time.Millisecond
				got.OnDeadline(now)
				ref.OnDeadline(now)
			case op < 92: // the FIN, on the next segment
				s := next
				next = next.Next()
				deliver(step, s, true)
			case op < 94: // the sender gives up below a point
				fin := got.CumAck().Add(rng.Intn(12) - 2)
				got.ForceFin(now, fin)
				ref.ForceFin(now, fin)
			}
			compareReassemblers(t, seed, step, got, ref, reader.Intn(2) == 0)
		}
	}
}

func compareReassemblers(t *testing.T, seed int64, step int, got *Reassembler, ref *refReassembler, drain bool) {
	t.Helper()
	fail := func(what string, a, b any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, what, a, b)
	}
	if a, b := got.CumAck(), ref.CumAck(); a != b {
		fail("CumAck", a, b)
	}
	if a, b := got.Blocks(nil, 64), ref.Blocks(nil, 64); !slices.Equal(a, b) {
		fail("Blocks", a, b)
	}
	if a, b := got.DuplicateSegs, ref.DuplicateSegs; a != b {
		fail("DuplicateSegs", a, b)
	}
	if a, b := got.SkippedSegs, ref.SkippedSegs; a != b {
		fail("SkippedSegs", a, b)
	}
	if a, b := got.DeliveredBytes, ref.DeliveredBytes; a != b {
		fail("DeliveredBytes", a, b)
	}
	at1, ok1 := got.NextDeadline()
	at2, ok2 := ref.NextDeadline()
	if at1 != at2 || ok1 != ok2 {
		fail("NextDeadline", []any{at1, ok1}, []any{at2, ok2})
	}
	if a, b := got.Buffered(), ref.Buffered(); a != b {
		fail("Buffered", a, b)
	}
	if a, b := got.BufferedBytes(), ref.BufferedBytes(); a != b {
		fail("BufferedBytes", a, b)
	}
	if a, b := got.Finished(), ref.Finished(); a != b {
		fail("Finished", a, b)
	}
	if a, b := got.Unread(), ref.Unread(); a != b {
		fail("Unread", a, b)
	}
	if !drain {
		return
	}
	// The reference's chunks, one per non-empty segment, in the order of
	// its delivery log.
	segs := ref.pushed
	var want [][]byte
	for q, ok := ref.Pop(); ok; q, ok = ref.Pop() {
		want = append(want, q)
	}
	ref.pushed = ref.pushed[:0]
	// Each of got's chunks must be the next whole reference segments,
	// consecutive in sequence: between two segments of one chunk, only
	// the empty segments delivered between them.
	k, w := 0, 0
	for p, ok := got.Pop(); ok; p, ok = got.Pop() {
		if len(p) > bufpool.Size {
			fail("chunk bytes", len(p), bufpool.Size)
		}
		for len(segs) > k && segs[k].n == 0 {
			k++ // empty segments before a chunk belong to no chunk
		}
		first := k
		for off := 0; off < len(p); k++ {
			if k == len(segs) {
				fail("Pop", p[off:], "nothing left")
			}
			if k > first && segs[k].seq != segs[k-1].seq.Next() {
				fail("chunk spans", []seqspace.Seq{segs[k-1].seq, segs[k].seq}, "consecutive segments")
			}
			if segs[k].n == 0 {
				continue // not on the reference's queue
			}
			if len(p)-off < len(want[w]) || !bytes.Equal(p[off:off+len(want[w])], want[w]) {
				fail("Pop", p[off:], want[w])
			}
			off += len(want[w])
			w++
		}
		bufpool.PutChunk(p)
	}
	if w != len(want) {
		fail("chunks popped", w, len(want))
	}
	for _, q := range want {
		bufpool.PutChunk(q)
	}
}

// TestReassemblerRuns pins what the in-order path hands the reader. A
// reader that keeps up gets one 2 KiB chunk per segment; a reader that
// lags gets the first segment in a chunk and the rest in runs of at most
// bufpool.Size bytes; no run spans a hole skipped by OnDeadline or
// ForceFin; an unordered reassembler hands out one chunk per segment
// whatever the reader does.
func TestReassemblerRuns(t *testing.T) {
	const mss = 1400
	seg := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i)}, mss)
		copy(p, pay(i))
		return p
	}
	// drain pops everything and returns each chunk's first segment,
	// checking the chunk holds consecutive whole segments.
	drain := func(t *testing.T, q interface{ Pop() ([]byte, bool) }) (firsts []int, caps []int) {
		t.Helper()
		for p, ok := q.Pop(); ok; p, ok = q.Pop() {
			if len(p) == 0 || len(p)%mss != 0 || len(p) > bufpool.Size {
				t.Fatalf("chunk of %d bytes: not whole segments of %d within %d", len(p), mss, bufpool.Size)
			}
			var prev int
			for off := 0; off < len(p); off += mss {
				idx := runIndices(t, p[off:off+len(pay(0))])[0]
				if !bytes.Equal(p[off:off+mss], seg(idx)) {
					t.Fatalf("segment %d corrupted in its chunk", idx)
				}
				if off == 0 {
					firsts = append(firsts, idx)
				} else if idx != prev+1 {
					t.Fatalf("chunk holds segment %d after %d: a run spans a hole", idx, prev)
				}
				prev = idx
			}
			caps = append(caps, cap(p))
			bufpool.PutChunk(p)
		}
		return firsts, caps
	}

	t.Run("keeps-up", func(t *testing.T) {
		r := NewReassembler(0, 0)
		for i := 0; i < 100; i++ {
			r.OnData(0, seqspace.Seq(i), seg(i), false)
			p, ok := r.Pop()
			if !ok || !bytes.Equal(p, seg(i)) || cap(p) != bufpool.ChunkSize {
				t.Fatalf("segment %d: popped %d bytes of capacity %d, want its %d in a chunk of %d",
					i, len(p), cap(p), mss, bufpool.ChunkSize)
			}
			bufpool.PutChunk(p)
		}
	})

	t.Run("lags", func(t *testing.T) {
		const n = 200
		r := NewReassembler(0, 0)
		for i := 0; i < n; i++ {
			r.OnData(0, seqspace.Seq(i), seg(i), false)
		}
		if r.Unread() != n*mss {
			t.Fatalf("Unread = %d, want %d", r.Unread(), n*mss)
		}
		firsts, caps := drain(t, r)
		perRun := bufpool.Size / mss
		want := []int{0}
		for i := 1; i < n; i += perRun {
			want = append(want, i)
		}
		if !slices.Equal(firsts, want) {
			t.Fatalf("chunks start at segments %v, want %v", firsts, want)
		}
		if caps[0] != bufpool.ChunkSize {
			t.Fatalf("first chunk has capacity %d, want %d", caps[0], bufpool.ChunkSize)
		}
		for i, c := range caps[1:] {
			if c != bufpool.Size {
				t.Fatalf("run %d has capacity %d, want %d", i, c, bufpool.Size)
			}
		}
	})

	t.Run("deadline-skip", func(t *testing.T) {
		r := NewReassembler(0, 10*time.Millisecond)
		for i := 0; i < 5; i++ {
			r.OnData(0, seqspace.Seq(i), seg(i), false)
		}
		// 5 is lost; 6 waits behind it until the skip.
		r.OnData(time.Millisecond, 6, seg(6), false)
		r.OnDeadline(20 * time.Millisecond)
		for i := 7; i < 10; i++ {
			r.OnData(20*time.Millisecond, seqspace.Seq(i), seg(i), false)
		}
		if firsts, _ := drain(t, r); !slices.Equal(firsts, []int{0, 1, 6, 7}) {
			t.Fatalf("chunks start at segments %v, want [0 1 6 7]", firsts)
		}
	})

	t.Run("forcefin-skip", func(t *testing.T) {
		r := NewReassembler(0, 0)
		for i := 0; i < 5; i++ {
			r.OnData(0, seqspace.Seq(i), seg(i), false)
		}
		// The sender gives 5..8 up with nothing of them buffered: the
		// frontier jumps to 9 without a segment delivered.
		r.ForceFin(0, 8)
		for i := 9; i < 12; i++ {
			r.OnData(0, seqspace.Seq(i), seg(i), false)
		}
		if firsts, _ := drain(t, r); !slices.Equal(firsts, []int{0, 1, 9}) {
			t.Fatalf("chunks start at segments %v, want [0 1 9]", firsts)
		}
	})

	t.Run("unordered", func(t *testing.T) {
		u := NewUnordered(0)
		for i := 0; i < 10; i++ {
			u.OnData(0, seqspace.Seq(i), seg(i), false)
		}
		firsts, caps := drain(t, u)
		if !slices.Equal(firsts, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
			t.Fatalf("chunks start at segments %v, want one per segment", firsts)
		}
		for i, c := range caps {
			if c != bufpool.ChunkSize {
				t.Fatalf("chunk %d has capacity %d, want %d", i, c, bufpool.ChunkSize)
			}
		}
	})
}

// TestReassemblerSkipCostsOneStepPerHole skips a hole 2^30 segments
// wide, once by the deadline and once by a forced FIN, from a start near
// the sequence wrap. A skip that walked the hole a sequence number at a
// time would take seconds; each must come back at once, having counted
// every segment it passed.
func TestReassemblerSkipCostsOneStepPerHole(t *testing.T) {
	const start, far = seqspace.Seq(1<<32 - 7), 1 << 30
	const skip = 10 * time.Millisecond
	cases := []struct {
		name    string
		run     func(r *Reassembler)
		skipped int
	}{
		{"deadline", func(r *Reassembler) {
			r.OnData(0, start.Add(far), []byte("x"), true)
			r.OnDeadline(skip)
		}, far},
		// ForceFin abandons everything through the FIN itself.
		{"forcefin", func(r *Reassembler) { r.ForceFin(0, start.Add(far)) }, far + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReassembler(start, skip)
			done := make(chan struct{})
			go func() {
				c.run(r)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("the skip is still running after 2 s")
			}
			if r.SkippedSegs != c.skipped {
				t.Fatalf("SkippedSegs = %d, want %d", r.SkippedSegs, c.skipped)
			}
			if want := start.Add(far + 1); r.CumAck() != want || !r.Finished() {
				t.Fatalf("CumAck = %d, Finished %v; want %d, true", r.CumAck(), r.Finished(), want)
			}
		})
	}
}
