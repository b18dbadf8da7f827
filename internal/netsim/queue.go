package netsim

import "math/rand"

// Queue is a link queuing discipline. Enqueue may drop (returning
// false); Dequeue returns nil when empty. Implementations must do all
// randomness through the supplied *rand.Rand for reproducibility.
type Queue interface {
	Enqueue(now Time, rng *rand.Rand, p *Packet) bool
	Dequeue(now Time) *Packet
	Len() int   // packets queued
	Bytes() int // bytes queued
}

// ring is a FIFO that reuses its array, grown by doubling only when
// full, so its size follows the peak occupancy. The queues below keep
// their packets in one, and a link its packets in flight.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(2*len(r.buf), 8))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// front returns the oldest element; the ring must not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes the oldest element and returns it; the ring must not be
// empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

func (r *ring[T]) len() int { return r.n }

// fifo is the packet FIFO of the disciplines below: a ring that also
// counts the bytes it holds.
type fifo struct {
	ring[*Packet]
	bytes int
}

func (f *fifo) push(p *Packet) {
	f.ring.push(p)
	f.bytes += p.Size
}

func (f *fifo) pop() *Packet {
	if f.n == 0 {
		return nil
	}
	p := f.ring.pop()
	f.bytes -= p.Size
	return p
}

func (f *fifo) size() int { return f.bytes }

// DropTail is a FIFO queue that drops arrivals once it holds LimitPkts
// packets (or LimitBytes bytes, when set).
type DropTail struct {
	LimitPkts  int
	LimitBytes int // 0 = unlimited
	q          fifo

	Drops int
}

// NewDropTail returns a FIFO queue bounded to limitPkts packets.
func NewDropTail(limitPkts int) *DropTail {
	return &DropTail{LimitPkts: limitPkts}
}

// Enqueue implements Queue.
func (d *DropTail) Enqueue(now Time, rng *rand.Rand, p *Packet) bool {
	if d.LimitPkts > 0 && d.q.len() >= d.LimitPkts {
		d.Drops++
		return false
	}
	if d.LimitBytes > 0 && d.q.size()+p.Size > d.LimitBytes {
		d.Drops++
		return false
	}
	d.q.push(p)
	return true
}

// Dequeue implements Queue.
func (d *DropTail) Dequeue(now Time) *Packet { return d.q.pop() }

// Len implements Queue.
func (d *DropTail) Len() int { return d.q.len() }

// Bytes implements Queue.
func (d *DropTail) Bytes() int { return d.q.size() }

// REDCurve is one RED drop curve with the gentle variant (Floyd &
// Jacobson 1993): the drop probability rises linearly from 0 at MinTh to
// MaxP at MaxTh, then from MaxP to 1 at 2*MaxTh. Thresholds are in
// packets.
type REDCurve struct {
	MinTh, MaxTh float64
	MaxP         float64 // drop probability at MaxTh

	count int // arrivals since the last drop, for uniformization
}

// Drop decides one arrival's fate at average queue avg, drawing from rng
// only between the thresholds.
func (c *REDCurve) Drop(avg float64, rng *rand.Rand) bool {
	var pb float64
	switch {
	case avg < c.MinTh:
		c.count = -1
		return false
	case avg < c.MaxTh:
		pb = c.MaxP * (avg - c.MinTh) / (c.MaxTh - c.MinTh)
	case avg < 2*c.MaxTh: // gentle region
		pb = c.MaxP + (1-c.MaxP)*(avg-c.MaxTh)/c.MaxTh
	default:
		c.count = 0
		return true
	}
	c.count++
	// Uniformize inter-drop spacing (RED's pa correction).
	pa := pb / (1 - float64(c.count)*pb)
	if pa < 0 || pa > 1 {
		pa = 1
	}
	if rng.Float64() < pa {
		c.count = 0
		return true
	}
	return false
}

// RED implements Random Early Detection: one REDCurve over the average
// queue, an EWMA over instantaneous occupancy sampled at each arrival.
type RED struct {
	REDCurve
	Wq        float64 // EWMA weight, typically 0.002
	LimitPkts int     // hard limit

	q   fifo
	avg float64

	Drops       int
	ForcedDrops int
}

// NewRED returns a RED queue with conventional parameters.
func NewRED(minTh, maxTh float64, maxP float64, limitPkts int) *RED {
	return &RED{REDCurve: REDCurve{MinTh: minTh, MaxTh: maxTh, MaxP: maxP}, Wq: 0.002, LimitPkts: limitPkts}
}

// Enqueue implements Queue.
func (r *RED) Enqueue(now Time, rng *rand.Rand, p *Packet) bool {
	r.avg = (1-r.Wq)*r.avg + r.Wq*float64(r.q.len())
	if r.LimitPkts > 0 && r.q.len() >= r.LimitPkts {
		r.ForcedDrops++
		return false
	}
	if r.Drop(r.avg, rng) {
		r.Drops++
		return false
	}
	r.q.push(p)
	return true
}

// Dequeue implements Queue.
func (r *RED) Dequeue(now Time) *Packet { return r.q.pop() }

// Len implements Queue.
func (r *RED) Len() int { return r.q.len() }

// Bytes implements Queue.
func (r *RED) Bytes() int { return r.q.size() }

// AvgQueue returns the current EWMA queue estimate (for tests/traces).
func (r *RED) AvgQueue() float64 { return r.avg }
