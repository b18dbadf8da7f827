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

// refReassembler is the Reassembler before the in-order path: every
// arrival is recorded in the interval set and the map, and advance
// moves it to the ready queue. OnDeadline and ForceFin are copied too,
// so the reference runs only its own code; the read-only accessors are
// shared.
type refReassembler struct{ *Reassembler }

func (r refReassembler) OnData(now time.Duration, seq seqspace.Seq, payload []byte, fin bool) bool {
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

func (r refReassembler) advance(now time.Duration) {
	for r.received.Contains(r.cumAck) {
		p := r.buf[r.cumAck]
		delete(r.buf, r.cumAck)
		r.bufBytes -= len(p)
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

func (r refReassembler) OnDeadline(now time.Duration) {
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

func (r refReassembler) ForceFin(now time.Duration, fin seqspace.Seq) {
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
// every observable after every step.
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
		got, ref := NewReassembler(start, skip), refReassembler{NewReassembler(start, skip)}
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
			compareReassemblers(t, seed, step, got, ref.Reassembler)
		}
	}
}

func compareReassemblers(t *testing.T, seed int64, step int, got, ref *Reassembler) {
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
	for {
		p, ok := got.Pop()
		q, ok2 := ref.Pop()
		if ok != ok2 || !bytes.Equal(p, q) {
			fail("Pop", p, q)
		}
		if !ok {
			break
		}
		bufpool.PutChunk(p)
		bufpool.PutChunk(q)
	}
}
