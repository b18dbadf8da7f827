package seqspace

// Received is a receiver's record of what arrived: the cumulative point
// Cum, before which every number arrived or was passed, and the ranges
// above it that arrived out of order, trimmed at Cum so that it holds
// one range per hole open above it. Every receiver here keeps one; they
// differ only in what they hand up. The zero value starts at 0.
type Received struct {
	cum   Seq
	above IntervalSet // no range touches cum
}

// ReceivedFrom returns a record whose cumulative point is start.
func ReceivedFrom(start Seq) Received { return Received{cum: start} }

// Cum returns the first number that has neither arrived nor been passed.
func (r *Received) Cum() Seq { return r.cum }

// Above returns the ranges that arrived above Cum, ascending. The slice
// is owned by r and valid until its next change.
func (r *Received) Above() []Range { return r.above.ranges }

// Add records the arrival of s and reports whether it was new. The next
// number expected, with nothing above it — every arrival on a path that
// neither loses nor reorders — costs two comparisons and touches no
// range (header prediction, after Jacobson's 4BSD TCP).
func (r *Received) Add(s Seq) bool {
	if s == r.cum && len(r.above.ranges) == 0 {
		r.cum = s + 1
		return true
	}
	return r.AddRange(Range{Lo: s, Hi: s + 1}) > 0
}

// AddRange records the arrival of every number in rg and returns how
// many of them were new; none before Cum is.
func (r *Received) AddRange(rg Range) int {
	if rg.Lo.Less(r.cum) {
		if rg.Hi.LessEq(r.cum) {
			return 0
		}
		rg.Lo = r.cum
	}
	n := r.above.Add(rg)
	r.settle()
	return n
}

// Pass moves Cum up to to and forgets what arrived below it: a hole
// given up, or an ack floor the sender has passed. A to at or before
// Cum changes nothing.
func (r *Received) Pass(to Seq) {
	if !r.cum.Less(to) {
		return
	}
	r.cum = to
	r.above.RemoveBefore(to)
	r.settle()
}

// settle moves Cum over the first range if it starts there; no other
// can, because ranges never touch.
func (r *Received) settle() {
	if rs := r.above.ranges; len(rs) > 0 && rs[0].Lo == r.cum {
		r.cum = rs[0].Hi
		r.above.ranges = rs[:copy(rs, rs[1:])]
	}
}
