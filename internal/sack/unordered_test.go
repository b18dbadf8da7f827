package sack

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/seqspace"
)

// refUnordered is the receiver this package shipped for reliable-
// unordered streams before the Reassembler gained its unordered mode
// (NewUnordered), kept verbatim but for its names as the reference
// model of TestUnorderedDifferential.
//
// It is the receiver side of a reliable-unordered stream:
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
type refUnordered struct {
	arrived seqspace.Received // Cum: the first segment not yet received
	readyQueue

	finSeq  seqspace.Seq
	haveFin bool

	// Counters.
	DeliveredBytes int
	DuplicateSegs  int
}

// newRefUnordered returns a receiver expecting the stream to begin
// at sequence number start.
func newRefUnordered(start seqspace.Seq) *refUnordered {
	return &refUnordered{arrived: seqspace.ReceivedFrom(start)}
}

// OnData processes a data segment, returning true if it was new. New
// segments are queued for immediate delivery regardless of ordering.
func (u *refUnordered) OnData(seq seqspace.Seq, payload []byte, fin bool) bool {
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
func (u *refUnordered) CumAck() seqspace.Seq { return u.arrived.Cum() }

// Finished reports whether a FIN has been seen and every segment up to
// and including it has been received.
func (u *refUnordered) Finished() bool {
	return u.haveFin && u.finSeq.Less(u.arrived.Cum())
}

// TestUnorderedDifferential drives NewUnordered's reassembler and
// refUnordered through the same seeded schedules — arrivals in and out
// of order, held-back segments arriving late, duplicates of anything
// sent or of segments below the start, FINs (duplicated too), payloads
// empty, chunk-sized and larger than a chunk, from a start near the
// sequence wrap — and compares after every step the chunks each pops,
// byte for byte and capacity for capacity, CumAck, the SACK blocks,
// Finished, Unread, DeliveredBytes and DuplicateSegs. The unordered
// mode must also never buffer, skip or arm a deadline.
func TestUnorderedDifferential(t *testing.T) {
	delivered, dups, finished := 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := seqspace.Seq(1<<32 - rng.Intn(64))
		if seed%4 == 3 {
			start = seqspace.Seq(rng.Uint32())
		}
		got, ref := NewUnordered(start), newRefUnordered(start)
		payloads := map[seqspace.Seq][]byte{}
		payload := func(s seqspace.Seq) []byte {
			p, ok := payloads[s]
			if !ok {
				n := rng.Intn(1500)
				switch rng.Intn(16) {
				case 0:
					n = 0
				case 1:
					n = 2048 + rng.Intn(2048) // past the chunk size class
				}
				p = make([]byte, n)
				rng.Read(p)
				payloads[s] = p
			}
			return p
		}
		next := start           // next sequence the sender would send
		var held []seqspace.Seq // sent, not yet arrived
		var finSeq seqspace.Seq
		haveFin := false
		deliver := func(step int, s seqspace.Seq) {
			p := payload(s)
			fin := haveFin && s == finSeq
			a, b := got.OnData(time.Duration(step)*time.Millisecond, s, p, fin), ref.OnData(s, p, fin)
			if a != b {
				t.Fatalf("seed %d step %d: OnData(%d) = %v, reference %v", seed, step, s, a, b)
			}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(100); {
			case op < 40 && !haveFin: // a burst, some of it held back
				for n := 1 + rng.Intn(6); n > 0; n-- {
					s := next
					next = next.Next()
					if rng.Intn(4) == 0 {
						held = append(held, s)
						continue
					}
					deliver(step, s)
				}
			case op < 60 && len(held) > 0: // a held segment arrives late
				i := rng.Intn(len(held))
				s := held[i]
				held = append(held[:i], held[i+1:]...)
				deliver(step, s)
			case op < 72: // a duplicate of anything sent, or from before the start
				if d := start.Distance(next); d > 0 && rng.Intn(6) != 0 {
					deliver(step, start.Add(rng.Intn(d)))
				} else {
					deliver(step, start.Add(-1-rng.Intn(4)))
				}
			case op < 76 && !haveFin: // the FIN, on the next segment or held back
				finSeq, haveFin = next, true
				next = next.Next()
				if rng.Intn(2) == 0 {
					held = append(held, finSeq)
				} else {
					deliver(step, finSeq)
				}
			}
			pops := rng.Intn(4)
			if rng.Intn(3) == 0 {
				pops = 1 << 20 // drain
			}
			for ; pops > 0; pops-- {
				a, aok := got.Pop()
				b, bok := ref.Pop()
				if aok != bok || !bytes.Equal(a, b) || cap(a) != cap(b) {
					t.Fatalf("seed %d step %d: Pop = %d bytes (cap %d) %v, reference %d bytes (cap %d) %v",
						seed, step, len(a), cap(a), aok, len(b), cap(b), bok)
				}
				if !aok {
					break
				}
			}
			compareUnordered(t, seed, step, got, ref)
		}
		delivered += ref.DeliveredBytes
		dups += ref.DuplicateSegs
		if ref.Finished() {
			finished++
		}
	}
	// The schedules must reach the interesting states, or equality
	// proves little.
	t.Logf("%d bytes delivered, %d duplicates, %d of 200 streams finished", delivered, dups, finished)
	if dups < 1000 || finished < 50 {
		t.Fatalf("weak coverage: %d duplicates, %d streams finished", dups, finished)
	}
}

func compareUnordered(t *testing.T, seed int64, step int, got *Reassembler, ref *refUnordered) {
	t.Helper()
	fail := func(what string, a, b any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, what, a, b)
	}
	if a, b := got.CumAck(), ref.CumAck(); a != b {
		fail("CumAck", a, b)
	}
	if a, b := got.Blocks(nil, 64), ref.arrived.Above(); !slices.Equal(a, b) {
		fail("Blocks", a, b)
	}
	if a, b := got.Finished(), ref.Finished(); a != b {
		fail("Finished", a, b)
	}
	if a, b := got.Unread(), ref.Unread(); a != b {
		fail("Unread", a, b)
	}
	if a, b := got.DeliveredBytes, ref.DeliveredBytes; a != b {
		fail("DeliveredBytes", a, b)
	}
	if a, b := got.DuplicateSegs, ref.DuplicateSegs; a != b {
		fail("DuplicateSegs", a, b)
	}
	if got.Buffered() != 0 || got.BufferedBytes() != 0 || got.SkippedSegs != 0 {
		fail("Buffered/BufferedBytes/SkippedSegs", []int{got.Buffered(), got.BufferedBytes(), got.SkippedSegs}, "none")
	}
	if at, ok := got.NextDeadline(); ok {
		fail("NextDeadline", at, "none")
	}
}
