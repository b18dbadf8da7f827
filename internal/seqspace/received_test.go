package seqspace

import (
	"math/rand"
	"slices"
	"testing"
)

// refReceived is Received's job done with a plain set: every number
// above cum that arrived, and cum the first one missing.
type refReceived struct {
	cum Seq
	got map[Seq]bool
}

func (r *refReceived) add(s Seq) bool {
	if s.Less(r.cum) || r.got[s] {
		return false
	}
	r.got[s] = true
	r.settle()
	return true
}

func (r *refReceived) pass(to Seq) {
	if !r.cum.Less(to) {
		return
	}
	for s := range r.got {
		if s.Less(to) {
			delete(r.got, s)
		}
	}
	r.cum = to
	r.settle()
}

// settle moves cum past what arrived, forgetting it on the way.
func (r *refReceived) settle() {
	for r.got[r.cum] {
		delete(r.got, r.cum)
		r.cum = r.cum.Next()
	}
}

// ranges returns the set above cum as ascending half-open ranges.
func (r *refReceived) ranges() []Range {
	var out []Range
	for s, found := r.cum, 0; found < len(r.got); s = s.Next() {
		if !r.got[s] {
			continue
		}
		found++
		if n := len(out); n > 0 && out[n-1].Hi == s {
			out[n-1].Hi = s.Next()
		} else {
			out = append(out, Range{Lo: s, Hi: s.Next()})
		}
	}
	return out
}

// TestReceivedInOrderDifferential drives Received and a plain set
// through the same seeded schedules — in-order runs, held-back and
// reordered arrivals, duplicates, ranges arriving at once and passes of
// the cumulative point, from a start near the sequence wrap — and
// compares what each call returned, the cumulative point and the ranges
// above it after every step.
func TestReceivedInOrderDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := Seq(rng.Uint32())
		if seed%4 == 0 {
			start = Seq(1<<32 - 50)
		}
		got := ReceivedFrom(start)
		ref := refReceived{cum: start, got: map[Seq]bool{}}
		next := start
		var held []Seq
		for step := 0; step < 400; step++ {
			var arrived []Seq
			switch op := rng.Intn(100); {
			case op < 50: // a run, most of it in order
				for n := 1 + rng.Intn(8); n > 0; n-- {
					if rng.Intn(8) == 0 {
						held = append(held, next)
					} else {
						arrived = append(arrived, next)
					}
					next = next.Next()
				}
			case op < 68 && len(held) > 0: // a held arrival, late
				i := rng.Intn(len(held))
				arrived = append(arrived, held[i])
				held = append(held[:i], held[i+1:]...)
			case op < 80: // a duplicate of anything sent
				if d := start.Distance(next); d > 0 {
					arrived = append(arrived, start.Add(rng.Intn(d)))
				}
			case op < 90: // a range at once, reaching below cum and past next
				lo := got.Cum().Add(rng.Intn(12) - 4)
				rg := Range{Lo: lo, Hi: lo.Add(rng.Intn(10))}
				want := 0
				for s := rg.Lo; s != rg.Hi; s = s.Next() {
					if ref.add(s) {
						want++
					}
				}
				if n := got.AddRange(rg); n != want {
					t.Fatalf("seed %d step %d: AddRange(%v) = %d, reference %d", seed, step, rg, n, want)
				}
				if next.Less(rg.Hi) {
					next = rg.Hi
				}
			default: // the cumulative point is passed (an ack floor, a skip)
				to := got.Cum().Add(rng.Intn(10) - 3)
				got.Pass(to)
				ref.pass(to)
			}
			for _, s := range arrived {
				if a, b := got.Add(s), ref.add(s); a != b {
					t.Fatalf("seed %d step %d: Add(%d) = %v, reference %v", seed, step, s, a, b)
				}
			}
			if got.Cum() != ref.cum {
				t.Fatalf("seed %d step %d: Cum = %d, reference %d", seed, step, got.Cum(), ref.cum)
			}
			if a, b := got.Above(), ref.ranges(); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: Above %v, reference %v", seed, step, a, b)
			}
		}
	}
}

// TestReceivedZeroValue checks the zero value starts at 0 and a pass
// over a hole lands on the range above it.
func TestReceivedZeroValue(t *testing.T) {
	var r Received
	if !r.Add(0) || r.Cum() != 1 {
		t.Fatalf("Add(0): Cum = %d, want 1", r.Cum())
	}
	r.Add(5)
	r.AddRange(Range{Lo: 7, Hi: 9})
	if r.Add(5) || r.AddRange(Range{Lo: 0, Hi: 1}) != 0 {
		t.Fatal("a number already recorded counted as new")
	}
	r.Pass(5)
	if r.Cum() != 6 || !slices.Equal(r.Above(), []Range{{7, 9}}) {
		t.Fatalf("Pass(5): Cum %d, Above %v; want 6, [[7,9)]", r.Cum(), r.Above())
	}
	r.Pass(8)
	if r.Cum() != 9 || len(r.Above()) != 0 {
		t.Fatalf("Pass(8): Cum %d, Above %v; want 9, none", r.Cum(), r.Above())
	}
}
