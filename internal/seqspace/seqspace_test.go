package seqspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeqComparisons(t *testing.T) {
	cases := []struct {
		a, b              Seq
		less, lessEq, geq bool
	}{
		{0, 0, false, true, true},
		{0, 1, true, true, false},
		{1, 0, false, false, true},
		{math.MaxUint32, 0, true, true, false}, // wrap
		{0, math.MaxUint32, false, false, true},
		{math.MaxUint32 - 5, 5, true, true, false},
		// Note: numbers exactly half the space apart are deliberately not
		// tested; RFC 1982 leaves that comparison undefined.
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%d.Less(%d) = %v, want %v", c.a, c.b, got, c.less)
		}
		if got := c.a.LessEq(c.b); got != c.lessEq {
			t.Errorf("%d.LessEq(%d) = %v, want %v", c.a, c.b, got, c.lessEq)
		}
		if got := c.a.GreaterEq(c.b); got != c.geq {
			t.Errorf("%d.GreaterEq(%d) = %v, want %v", c.a, c.b, got, c.geq)
		}
	}
}

func TestSeqAddDistance(t *testing.T) {
	if got := Seq(math.MaxUint32).Add(1); got != 0 {
		t.Errorf("MaxUint32.Add(1) = %d, want 0", got)
	}
	if got := Seq(0).Add(-1); got != math.MaxUint32 {
		t.Errorf("0.Add(-1) = %d, want MaxUint32", got)
	}
	if got := Seq(10).Distance(17); got != 7 {
		t.Errorf("Distance(10,17) = %d, want 7", got)
	}
	if got := Seq(17).Distance(10); got != -7 {
		t.Errorf("Distance(17,10) = %d, want -7", got)
	}
	if got := Seq(math.MaxUint32 - 1).Distance(3); got != 5 {
		t.Errorf("wrap Distance = %d, want 5", got)
	}
}

func TestSeqMinMax(t *testing.T) {
	if got := Max(Seq(math.MaxUint32), 2); got != 2 {
		t.Errorf("Max wrap = %d, want 2", got)
	}
	if got := Min(Seq(math.MaxUint32), 2); got != math.MaxUint32 {
		t.Errorf("Min wrap = %d, want MaxUint32", got)
	}
}

// Property: Less is a strict total order on any window < 2^31, i.e.
// antisymmetric and consistent with integer order after normalisation.
func TestSeqLessProperty(t *testing.T) {
	f := func(base uint32, da, db uint16) bool {
		a := Seq(base).Add(int(da))
		b := Seq(base).Add(int(db))
		wantLess := da < db
		if a.Less(b) != wantLess {
			return false
		}
		// Antisymmetry.
		if a != b && a.Less(b) == b.Less(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	if r.Empty() || r.Len() != 10 {
		t.Fatalf("Range{10,20}: Empty=%v Len=%d", r.Empty(), r.Len())
	}
	if !r.Contains(10) || !r.Contains(19) || r.Contains(20) || r.Contains(9) {
		t.Error("Contains boundaries wrong")
	}
}

func TestRangeWrap(t *testing.T) {
	r := Range{Lo: math.MaxUint32 - 2, Hi: 3} // spans the wrap point
	if r.Len() != 6 {
		t.Fatalf("wrap range Len = %d, want 6", r.Len())
	}
	if !r.Contains(math.MaxUint32) || !r.Contains(0) || !r.Contains(2) || r.Contains(3) {
		t.Error("wrap Contains wrong")
	}
}

func TestIntervalSetAddMerge(t *testing.T) {
	var s IntervalSet
	if n := s.Add(Range{10, 20}); n != 10 {
		t.Fatalf("Add new = %d, want 10", n)
	}
	if n := s.Add(Range{30, 40}); n != 10 {
		t.Fatalf("Add disjoint = %d, want 10", n)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Adjacent merge.
	if n := s.Add(Range{20, 30}); n != 10 {
		t.Fatalf("Add bridging = %d, want 10", n)
	}
	if s.Len() != 1 || s.Count() != 30 {
		t.Fatalf("after merge Len=%d Count=%d, want 1, 30", s.Len(), s.Count())
	}
	// Fully contained.
	if n := s.Add(Range{15, 25}); n != 0 {
		t.Fatalf("Add contained = %d, want 0", n)
	}
	if err := s.invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetAddOverlapLeftRight(t *testing.T) {
	var s IntervalSet
	s.Add(Range{10, 20})
	s.Add(Range{5, 12}) // extends left
	if s.Len() != 1 || s.Min() != 5 || s.Max() != 20 {
		t.Fatalf("left extend: %v", s.Ranges())
	}
	s.Add(Range{18, 25}) // extends right
	if s.Len() != 1 || s.Max() != 25 {
		t.Fatalf("right extend: %v", s.Ranges())
	}
}

func TestIntervalSetRemove(t *testing.T) {
	var s IntervalSet
	s.Add(Range{10, 30})
	if n := s.Remove(Range{15, 20}); n != 5 {
		t.Fatalf("Remove middle = %d, want 5", n)
	}
	if s.Len() != 2 {
		t.Fatalf("after split Len = %d, want 2", s.Len())
	}
	if s.Contains(15) || s.Contains(19) || !s.Contains(14) || !s.Contains(20) {
		t.Error("split boundaries wrong")
	}
	if n := s.Remove(Range{0, 100}); n != 15 {
		t.Fatalf("Remove all = %d, want 15", n)
	}
	if s.Len() != 0 {
		t.Error("set should be empty")
	}
	if err := s.invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetRemoveBefore(t *testing.T) {
	var s IntervalSet
	s.Add(Range{10, 20})
	s.Add(Range{30, 40})
	if n := s.RemoveBefore(35); n != 15 {
		t.Fatalf("RemoveBefore = %d, want 15", n)
	}
	if s.Len() != 1 || s.Min() != 35 {
		t.Fatalf("remaining %v", s.Ranges())
	}
	if n := s.RemoveBefore(35); n != 0 {
		t.Fatalf("idempotent RemoveBefore = %d, want 0", n)
	}
}

func TestIntervalSetFirstMissingAfter(t *testing.T) {
	var s IntervalSet
	s.Add(Range{10, 20})
	s.Add(Range{25, 30})
	cases := []struct{ in, want Seq }{
		{0, 0}, {10, 20}, {15, 20}, {20, 20}, {25, 30}, {29, 30}, {30, 30}, {99, 99},
	}
	for _, c := range cases {
		if got := s.FirstMissingAfter(c.in); got != c.want {
			t.Errorf("FirstMissingAfter(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIntervalSetGaps(t *testing.T) {
	var s IntervalSet
	s.Add(Range{10, 20})
	s.Add(Range{25, 30})
	gaps := s.Gaps(nil, 5, 40)
	want := []Range{{5, 10}, {20, 25}, {30, 40}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps[%d] = %v, want %v", i, gaps[i], want[i])
		}
	}
	// Window fully inside a covered range: no gaps.
	if g := s.Gaps(nil, 12, 18); len(g) != 0 {
		t.Fatalf("inner gaps = %v, want none", g)
	}
	// Empty window.
	if g := s.Gaps(nil, 18, 12); len(g) != 0 {
		t.Fatalf("reversed window gaps = %v, want none", g)
	}
}

func TestIntervalSetAddSeq(t *testing.T) {
	var s IntervalSet
	for _, q := range []Seq{5, 7, 6} {
		s.AddSeq(q)
	}
	if s.Len() != 1 || s.Count() != 3 {
		t.Fatalf("AddSeq coalescing failed: %v", s.Ranges())
	}
}

// Property test: the interval set behaves exactly like a reference
// map[Seq]bool under a random sequence of adds and removes, and its
// structural invariants always hold.
func TestIntervalSetModelCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const space = 200
	for trial := 0; trial < 200; trial++ {
		var s IntervalSet
		ref := make(map[Seq]bool)
		for op := 0; op < 60; op++ {
			lo := Seq(rng.Intn(space))
			ln := rng.Intn(20)
			r := Range{Lo: lo, Hi: lo.Add(ln)}
			if rng.Intn(3) == 0 {
				got := s.Remove(r)
				want := 0
				for q := r.Lo; q != r.Hi; q++ {
					if ref[q] {
						want++
						delete(ref, q)
					}
				}
				if got != want {
					t.Fatalf("trial %d: Remove(%v) = %d, want %d", trial, r, got, want)
				}
			} else {
				got := s.Add(r)
				want := 0
				for q := r.Lo; q != r.Hi; q++ {
					if !ref[q] {
						want++
						ref[q] = true
					}
				}
				if got != want {
					t.Fatalf("trial %d: Add(%v) = %d, want %d", trial, r, got, want)
				}
			}
			if err := s.invariant(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if s.Count() != len(ref) {
				t.Fatalf("trial %d: Count=%d ref=%d", trial, s.Count(), len(ref))
			}
			for q := Seq(0); q < space+20; q++ {
				if s.Contains(q) != ref[q] {
					t.Fatalf("trial %d: Contains(%d)=%v ref=%v ranges=%v",
						trial, q, s.Contains(q), ref[q], s.Ranges())
				}
			}
		}
	}
}

// refGaps is the front-to-back walk Gaps shipped with before it learned
// to start at search(lo); TestIntervalSetDifferential holds Gaps to it.
func refGaps(st *IntervalSet, dst []Range, lo, hi Seq) []Range {
	if hi.LessEq(lo) {
		return dst
	}
	cur := lo
	for _, r := range st.ranges {
		if r.Hi.LessEq(cur) {
			continue
		}
		if hi.LessEq(r.Lo) {
			break
		}
		if cur.Less(r.Lo) {
			dst = append(dst, Range{Lo: cur, Hi: Min(r.Lo, hi)})
		}
		if cur.Less(r.Hi) {
			cur = r.Hi
		}
		if hi.LessEq(cur) {
			return dst
		}
	}
	if cur.Less(hi) {
		dst = append(dst, Range{Lo: cur, Hi: hi})
	}
	return dst
}

// TestIntervalSetDifferential checks, over random adds, removes and
// trims on a window that slides through the 2^32 wrap, that Add returns
// exactly the growth of Count (and Remove its fall), and that Gaps lists
// what the front-to-back walk lists for query windows below, inside,
// across and above the set.
func TestIntervalSetDifferential(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		base := Seq(0)
		if trial%2 == 1 {
			base = Seq(1<<32 - 300) // the window crosses the wrap early in the run
		}
		var s IntervalSet
		var got, want []Range
		for op := 0; op < 1500; op++ {
			lo := base.Add(rng.Intn(400))
			r := Range{Lo: lo, Hi: lo.Add(rng.Intn(25))}
			before := s.Count()
			switch rng.Intn(8) {
			case 0:
				if n := s.Remove(r); n != before-s.Count() {
					t.Fatalf("trial %d op %d: Remove(%v) = %d, count fell by %d", trial, op, r, n, before-s.Count())
				}
			case 1:
				base = base.Add(rng.Intn(60)) // the frontier moves on: trim behind it
				if n := s.RemoveBefore(base); n != before-s.Count() {
					t.Fatalf("trial %d op %d: RemoveBefore(%d) = %d, count fell by %d", trial, op, base, n, before-s.Count())
				}
			default:
				if n := s.Add(r); n != s.Count()-before {
					t.Fatalf("trial %d op %d: Add(%v) = %d, count grew by %d", trial, op, r, n, s.Count()-before)
				}
			}
			if err := s.invariant(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			glo := base.Add(rng.Intn(500) - 50)
			ghi := glo.Add(rng.Intn(300) - 10)
			got, want = s.Gaps(got[:0], glo, ghi), refGaps(&s, want[:0], glo, ghi)
			if len(got) != len(want) {
				t.Fatalf("trial %d op %d: Gaps(%d,%d) = %v, want %v (set %v)", trial, op, glo, ghi, got, want, s.Ranges())
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d op %d: Gaps(%d,%d) = %v, want %v (set %v)", trial, op, glo, ghi, got, want, s.Ranges())
				}
			}
		}
	}
}

func TestIntervalSetMinMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min on empty set should panic")
		}
	}()
	var s IntervalSet
	s.Min()
}

func BenchmarkIntervalSetAdd(b *testing.B) {
	var s IntervalSet
	for i := 0; i < b.N; i++ {
		if s.Len() > 1000 {
			s.ranges = s.ranges[:0]
		}
		lo := Seq(uint32(i*7) % 100000)
		s.Add(Range{lo, lo + 3})
	}
}
