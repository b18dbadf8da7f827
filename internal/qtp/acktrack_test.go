package qtp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/seqspace"
)

// refAckTracker is connAckTracker's job done with a plain set: every
// sequence above cum that arrived, and cum the first one missing.
type refAckTracker struct {
	cum seqspace.Seq
	got map[seqspace.Seq]bool
}

func (r *refAckTracker) onData(seq seqspace.Seq) {
	if seq.Less(r.cum) {
		return
	}
	r.got[seq] = true
	r.settle()
}

func (r *refAckTracker) advanceFloor(floor seqspace.Seq) {
	if !r.cum.Less(floor) {
		return
	}
	for s := range r.got {
		if s.Less(floor) {
			delete(r.got, s)
		}
	}
	r.cum = floor
	r.settle()
}

// settle moves cum past what arrived, forgetting it on the way.
func (r *refAckTracker) settle() {
	for r.got[r.cum] {
		delete(r.got, r.cum)
		r.cum = r.cum.Next()
	}
}

// ranges returns the set above cum as ascending half-open ranges.
func (r *refAckTracker) ranges() []seqspace.Range {
	var out []seqspace.Range
	for s, found := r.cum, 0; found < len(r.got); s = s.Next() {
		if !r.got[s] {
			continue
		}
		found++
		if n := len(out); n > 0 && out[n-1].Hi == s {
			out[n-1].Hi = s.Next()
		} else {
			out = append(out, seqspace.Range{Lo: s, Hi: s.Next()})
		}
	}
	return out
}

// TestAckTrackerInOrderDifferential drives connAckTracker and a plain
// set through the same seeded schedules — in-order runs, held-back and
// reordered arrivals, duplicates and ack-floor jumps, from a start near
// the sequence wrap — and compares the cumulative ack and the ranges
// above it after every step.
func TestAckTrackerInOrderDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := seqspace.Seq(rng.Uint32())
		if seed%4 == 0 {
			start = seqspace.Seq(1<<32 - 50)
		}
		got := connAckTracker{cum: start}
		ref := refAckTracker{cum: start, got: map[seqspace.Seq]bool{}}
		next := start
		var held []seqspace.Seq
		for step := 0; step < 400; step++ {
			var arrived []seqspace.Seq
			switch op := rng.Intn(100); {
			case op < 55: // a run, most of it in order
				for n := 1 + rng.Intn(8); n > 0; n-- {
					if rng.Intn(8) == 0 {
						held = append(held, next)
					} else {
						arrived = append(arrived, next)
					}
					next = next.Next()
				}
			case op < 75 && len(held) > 0: // a held arrival, late
				i := rng.Intn(len(held))
				arrived = append(arrived, held[i])
				held = append(held[:i], held[i+1:]...)
			case op < 88: // a duplicate of anything sent
				if d := start.Distance(next); d > 0 {
					arrived = append(arrived, start.Add(rng.Intn(d)))
				}
			default: // the sender's ack floor moves
				floor := got.cum.Add(rng.Intn(10) - 3)
				got.advanceFloor(floor)
				ref.advanceFloor(floor)
			}
			for _, s := range arrived {
				got.onData(s)
				ref.onData(s)
			}
			if got.cum != ref.cum {
				t.Fatalf("seed %d step %d: cum = %d, reference %d", seed, step, got.cum, ref.cum)
			}
			if a, b := got.received.Ranges(), ref.ranges(); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: ranges %v, reference %v", seed, step, a, b)
			}
		}
	}
}
