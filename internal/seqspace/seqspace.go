// Package seqspace implements serial-number arithmetic and interval sets
// over a 32-bit circular sequence space, in the style of RFC 1982.
//
// Transport protocols number packets with fixed-width counters that wrap;
// comparing two sequence numbers therefore needs wrap-aware arithmetic.
// All QTP micro-protocols (SACK scoreboards, TFRC loss histories, the TCP
// baseline) share this package so the wrap rules live in exactly one place.
// Every receiver's record of what arrived — a cumulative point and the
// ranges above it — is one type here too, Received.
//
// What bounds an IntervalSet's cost is the number of ranges it holds and,
// of those, only the ones a call is asked about: Contains, Add, Remove,
// Gaps and FirstMissingAfter bisect to their first range and touch the
// ranges they cover (Add and Remove also shift the ranges above when the
// count changes). A set trimmed behind its frontier therefore costs the
// same at any connection age; only Count walks every range.
package seqspace

import "fmt"

// Seq is a sequence number in a 32-bit circular space.
//
// Two sequence numbers are comparable only when they are within half the
// space (2^31) of each other; the protocols in this repository never keep
// live state that spans more than a tiny fraction of the space, so the
// precondition always holds in practice.
type Seq uint32

// half is the comparison horizon of the circular space.
const half = 1 << 31

// DupThresh is the duplicate threshold of every loss detector here (RFC
// 3448 §5.1, RFC 6675's DupThresh): a packet is lost once this many
// packets with higher sequence numbers are covered. The TFRC loss
// histories, the SACK scoreboard and BBR all read it, so the views of
// the wire agree.
const DupThresh = 3

// Add returns s advanced by n, wrapping modulo 2^32.
func (s Seq) Add(n int) Seq {
	return Seq(uint32(s) + uint32(int32(n)))
}

// Next returns the sequence number immediately after s.
func (s Seq) Next() Seq { return s + 1 }

// Prev returns the sequence number immediately before s.
func (s Seq) Prev() Seq { return s - 1 }

// Less reports whether s precedes t in circular order.
func (s Seq) Less(t Seq) bool {
	return s != t && uint32(t-s) < half
}

// LessEq reports whether s precedes or equals t in circular order.
func (s Seq) LessEq(t Seq) bool {
	return uint32(t-s) < half
}

// GreaterEq reports whether s follows or equals t in circular order.
func (s Seq) GreaterEq(t Seq) bool { return t.LessEq(s) }

// Distance returns the number of steps from s to t going forward
// (t - s modulo 2^32) interpreted as a signed offset. A negative result
// means t precedes s.
func (s Seq) Distance(t Seq) int {
	return int(int32(uint32(t) - uint32(s)))
}

// Max returns the later of s and t in circular order.
func Max(s, t Seq) Seq {
	if s.Less(t) {
		return t
	}
	return s
}

// Min returns the earlier of s and t in circular order.
func Min(s, t Seq) Seq {
	if t.Less(s) {
		return t
	}
	return s
}

// Range is a half-open interval [Lo, Hi) of sequence numbers.
// An empty range has Lo == Hi.
type Range struct {
	Lo, Hi Seq
}

// Empty reports whether r contains no sequence numbers.
func (r Range) Empty() bool { return r.Lo == r.Hi }

// Len returns the number of sequence numbers in r.
func (r Range) Len() int { return r.Lo.Distance(r.Hi) }

// Contains reports whether s lies within r.
func (r Range) Contains(s Seq) bool {
	return r.Lo.LessEq(s) && s.Less(r.Hi)
}

func (r Range) String() string {
	return fmt.Sprintf("[%d,%d)", uint32(r.Lo), uint32(r.Hi))
}

// IntervalSet is an ordered set of disjoint, non-adjacent, non-empty
// sequence ranges. It is the backing structure for SACK scoreboards and
// receivers' records of what arrived.
//
// The zero value is an empty set ready for use. Ranges in the set must
// all fall within one comparison horizon of each other; callers uphold
// this by trimming acknowledged state promptly.
type IntervalSet struct {
	// ranges is kept sorted by Lo in circular order relative to the
	// earliest element.
	ranges []Range
}

// Len returns the number of disjoint ranges in the set.
func (st *IntervalSet) Len() int { return len(st.ranges) }

// Count returns the total number of sequence numbers covered by the set.
func (st *IntervalSet) Count() int {
	n := 0
	for _, r := range st.ranges {
		n += r.Len()
	}
	return n
}

// Ranges returns the underlying ranges in ascending order. The returned
// slice is owned by the set and must not be mutated; it is valid until
// the next modifying call.
func (st *IntervalSet) Ranges() []Range { return st.ranges }

// AppendSplit appends up to max of the given ascending ranges to dst.
// When they all fit it is a plain copy; when they do not, the budget is
// split between the lowest ranges and the highest, skipping the middle.
// Receivers use this when the buffered window outgrows the ack budget:
// the low half keeps the retransmit frontier visible while the high
// half reports the newest arrivals instead of silently dropping them,
// so a rate estimator on the far side keeps receiving delivery samples.
func AppendSplit(dst, all []Range, max int) []Range {
	if len(all) <= max {
		return append(dst, all...)
	}
	if max <= 0 {
		return dst
	}
	lo := (max + 1) / 2
	dst = append(dst, all[:lo]...)
	return append(dst, all[len(all)-(max-lo):]...)
}

// Reset makes the non-empty range r the set's only range, retaining
// capacity.
func (st *IntervalSet) Reset(r Range) { st.ranges = append(st.ranges[:0], r) }

// Contains reports whether s is covered by the set.
func (st *IntervalSet) Contains(s Seq) bool {
	i := st.search(s)
	return i < len(st.ranges) && st.ranges[i].Contains(s)
}

// search returns the index of the first range whose Hi is after s,
// i.e. the only candidate range that could contain s.
func (st *IntervalSet) search(s Seq) int {
	lo, hi := 0, len(st.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if st.ranges[mid].Hi.LessEq(s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts the range r, merging it with any overlapping or adjacent
// ranges. Empty ranges are ignored. It returns the number of sequence
// numbers newly covered (0 if r was already fully contained).
func (st *IntervalSet) Add(r Range) int {
	if r.Empty() {
		return 0
	}
	i := st.search(r.Lo)
	if i > 0 && st.ranges[i-1].Hi == r.Lo {
		// The preceding range is directly adjacent; merge with it too.
		i--
	}
	// Extend r to swallow every range it touches; what those covered is
	// not new.
	j, had := i, 0
	for j < len(st.ranges) && st.ranges[j].Lo.LessEq(r.Hi) {
		had += st.ranges[j].Len()
		if st.ranges[j].Lo.Less(r.Lo) {
			r.Lo = st.ranges[j].Lo
		}
		if r.Hi.Less(st.ranges[j].Hi) {
			r.Hi = st.ranges[j].Hi
		}
		j++
	}
	if i == j {
		// No touching ranges: plain insert.
		st.ranges = append(st.ranges, Range{})
		copy(st.ranges[i+1:], st.ranges[i:])
		st.ranges[i] = r
	} else {
		st.ranges[i] = r
		st.ranges = append(st.ranges[:i+1], st.ranges[j:]...)
	}
	return r.Len() - had
}

// AddSeq inserts the single sequence number s.
func (st *IntervalSet) AddSeq(s Seq) int {
	return st.Add(Range{Lo: s, Hi: s + 1})
}

// Remove deletes the range r from the set, splitting ranges as needed.
// It returns the number of sequence numbers actually removed.
func (st *IntervalSet) Remove(r Range) int {
	if r.Empty() || len(st.ranges) == 0 {
		return 0
	}
	i := st.search(r.Lo) // first range that could overlap r
	j := i
	removed := 0
	// keep holds the surviving fragments of overlapped ranges: at most a
	// left piece of the first and a right piece of the last.
	var keep [2]Range
	nk := 0
	for j < len(st.ranges) && st.ranges[j].Lo.Less(r.Hi) {
		cur := st.ranges[j]
		lo, hi := Max(cur.Lo, r.Lo), Min(cur.Hi, r.Hi)
		if lo.Less(hi) {
			removed += lo.Distance(hi)
		}
		if cur.Lo.Less(r.Lo) {
			keep[nk] = Range{Lo: cur.Lo, Hi: r.Lo}
			nk++
		}
		if r.Hi.Less(cur.Hi) {
			keep[nk] = Range{Lo: r.Hi, Hi: cur.Hi}
			nk++
		}
		j++
	}
	if i == j {
		return 0
	}
	old := len(st.ranges)
	if delta := nk - (j - i); delta <= 0 {
		copy(st.ranges[i:], keep[:nk])
		copy(st.ranges[i+nk:], st.ranges[j:])
		st.ranges = st.ranges[:old+delta]
	} else {
		// One range split into two pieces: grow by one and shift the tail.
		st.ranges = append(st.ranges, Range{})
		copy(st.ranges[i+nk:], st.ranges[j:old])
		copy(st.ranges[i:], keep[:nk])
	}
	return removed
}

// RemoveBefore deletes everything preceding s, typically after a
// cumulative acknowledgment. It returns the count removed.
func (st *IntervalSet) RemoveBefore(s Seq) int {
	if len(st.ranges) == 0 {
		return 0
	}
	lo := st.ranges[0].Lo
	if s.LessEq(lo) {
		return 0
	}
	return st.Remove(Range{Lo: lo, Hi: s})
}

// Min returns the earliest sequence number in the set.
// It panics if the set is empty.
func (st *IntervalSet) Min() Seq {
	if len(st.ranges) == 0 {
		panic("seqspace: Min of empty IntervalSet")
	}
	return st.ranges[0].Lo
}

// Max returns the latest sequence number in the set plus one (the Hi of
// the last range). It panics if the set is empty.
func (st *IntervalSet) Max() Seq {
	if len(st.ranges) == 0 {
		panic("seqspace: Max of empty IntervalSet")
	}
	return st.ranges[len(st.ranges)-1].Hi
}

// FirstMissingAfter returns the earliest sequence number >= s that is not
// covered by the set.
func (st *IntervalSet) FirstMissingAfter(s Seq) Seq {
	i := st.search(s)
	for ; i < len(st.ranges); i++ {
		r := st.ranges[i]
		if s.Less(r.Lo) {
			return s
		}
		if r.Contains(s) {
			s = r.Hi
		}
	}
	return s
}

// Gaps returns the uncovered ranges between lo and hi that are not in the
// set, appending them to dst and returning the extended slice.
func (st *IntervalSet) Gaps(dst []Range, lo, hi Seq) []Range {
	if hi.LessEq(lo) {
		return dst
	}
	cur := lo
	for _, r := range st.ranges[st.search(lo):] {
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

// invariant checks internal ordering; used by tests.
func (st *IntervalSet) invariant() error {
	for i, r := range st.ranges {
		if r.Empty() {
			return fmt.Errorf("seqspace: empty range at %d", i)
		}
		if i > 0 && !st.ranges[i-1].Hi.Less(r.Lo) {
			return fmt.Errorf("seqspace: ranges %d and %d not separated: %v %v",
				i-1, i, st.ranges[i-1], r)
		}
	}
	return nil
}
