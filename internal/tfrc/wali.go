package tfrc

import "math"

// LossIntervals is the Weighted Average Loss Interval (WALI) estimator
// of RFC 3448 §5.4. It maintains the most recent loss intervals —
// counts of packets between the starts of consecutive loss events — and
// computes the loss event rate p as the inverse of their weighted mean.
//
// The open interval I₀ (packets since the most recent loss event) is
// included only when doing so *lowers* p, which makes the estimator
// respond immediately to improving conditions but never spike on a
// single fresh loss.
//
// Depth is configurable (default 8) for the A2 ablation; weights follow
// the RFC pattern: 1 for the newer half, then linear decay.
type LossIntervals struct {
	// intervals[0] is the open interval; intervals[1..] are closed, most
	// recent first. len(intervals) <= depth+1.
	intervals []float64
	weights   []float64
	seeded    bool

	// Ops counts data-structure update operations; the receiver-cost
	// experiment (E4) reads it.
	Ops int
}

// DefaultWALIDepth is the RFC 3448 history depth n.
const DefaultWALIDepth = 8

// NewLossIntervals returns a WALI estimator keeping depth closed
// intervals. depth must be at least 2.
func NewLossIntervals(depth int) *LossIntervals {
	if depth < 2 {
		panic("tfrc: WALI depth must be >= 2")
	}
	w := make([]float64, depth)
	for i := range w {
		if i < depth/2 {
			w[i] = 1
		} else {
			w[i] = 2 * float64(depth-i) / float64(depth+2)
		}
	}
	return &LossIntervals{
		intervals: make([]float64, 1, depth+1),
		weights:   w,
	}
}

// Seeded reports whether at least one loss interval exists, i.e.
// whether P is meaningful (non-zero).
func (li *LossIntervals) Seeded() bool { return li.seeded }

// OnPackets grows the open interval by n packets.
func (li *LossIntervals) OnPackets(n int) {
	li.intervals[0] += float64(n)
	li.Ops++
}

// SetOpen overwrites the open interval length. Endpoints that measure
// intervals as sequence-number distances (the receiver and the QTPlight
// sender estimator) use this instead of incremental OnPackets calls.
func (li *LossIntervals) SetOpen(x float64) {
	li.intervals[0] = x
	li.Ops++
}

// Close pushes the open interval into the history and starts a new one
// at zero. Callers set the final interval length (the packet distance
// between consecutive loss-event starts) with SetOpen beforehand.
func (li *LossIntervals) Close() {
	li.push()
}

// Seed installs the synthetic first interval of RFC 3448 §6.3.1,
// replacing whatever open interval existed. Used at the first-ever loss
// event, with interval = 1/p for the p matching the observed X_recv.
func (li *LossIntervals) Seed(interval float64) {
	if interval < 1 {
		interval = 1
	}
	li.intervals = li.intervals[:1]
	li.intervals[0] = interval
	li.push()
}

func (li *LossIntervals) push() {
	depth := len(li.weights)
	li.intervals = append(li.intervals, 0)
	copy(li.intervals[1:], li.intervals[:len(li.intervals)-1])
	li.intervals[0] = 0
	if len(li.intervals) > depth+1 {
		li.intervals = li.intervals[:depth+1]
	}
	li.seeded = true
	li.Ops++
}

// P returns the current loss event rate estimate, or 0 before the first
// loss event.
//
// Per RFC 3448 §5.4 the estimate is 1 / max(mean with I₀, mean without
// I₀), each a weighted mean where the newest interval in the window gets
// weight w₀. Including I₀ only when it helps means a long loss-free run
// lowers p immediately while a fresh loss cannot inflate it.
func (li *LossIntervals) P() float64 {
	if !li.seeded {
		return 0
	}
	li.Ops++
	iMean := math.Max(li.weightedMean(0), li.weightedMean(1))
	if iMean < 1 {
		iMean = 1
	}
	return 1 / iMean
}

// weightedMean averages intervals[start:start+depth] with the weight
// vector aligned so the newest included interval gets weights[0].
func (li *LossIntervals) weightedMean(start int) float64 {
	var iTot, wTot float64
	for j := 0; j+start < len(li.intervals) && j < len(li.weights); j++ {
		iTot += li.intervals[j+start] * li.weights[j]
		wTot += li.weights[j]
	}
	if wTot == 0 {
		return 0
	}
	return iTot / wTot
}

// StateBytes reports the memory footprint of the history — the receiver
// state the paper's QTPlight removes from light clients (E4 metric).
func (li *LossIntervals) StateBytes() int {
	return 8 * (cap(li.intervals) + len(li.weights))
}
