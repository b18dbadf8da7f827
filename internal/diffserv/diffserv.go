// Package diffserv implements the DiffServ assured-forwarding substrate
// the paper's QTPAF protocol targets: per-flow token-bucket markers at
// the network edge (two-colour srTCM profile) and a RIO (RED with
// In/Out) queue at the bottleneck implementing the AF per-hop behaviour.
//
// Together these reproduce the EuQoS project's "DiffServ/AF-like class
// of service for non-real-time traffic": traffic within the negotiated
// profile is marked green and protected; excess traffic is marked red
// and dropped early under congestion. The well-known failure mode this
// enables — TCP backing off on red drops and never claiming its green
// reservation (Seddigh, Nandy, Pieda [8]) — is exactly what gTFRC fixes.
package diffserv

import (
	"math/rand"
	"time"

	"repro/internal/netsim"
)

// Marker is a two-colour token-bucket policer: packets within the
// committed rate/burst profile are marked green (in-profile), the rest
// red (out-of-profile). It wraps a downstream handler so it can sit
// in-line at the network edge.
type Marker struct {
	sim  *netsim.Sim
	next netsim.Handler

	cir float64 // committed information rate, bytes/s
	cbs float64 // committed burst size, bytes

	tokens float64
	last   netsim.Time

	Green netsim.Counter
	Red   netsim.Counter
}

// NewMarker returns an edge marker with the given committed rate
// (bytes/s) and burst (bytes), forwarding to next. The bucket starts
// full.
func NewMarker(sim *netsim.Sim, cir, cbs float64, next netsim.Handler) *Marker {
	if cir <= 0 || cbs <= 0 {
		panic("diffserv: marker needs positive rate and burst")
	}
	return &Marker{sim: sim, next: next, cir: cir, cbs: cbs, tokens: cbs}
}

// CIR returns the committed information rate in bytes/s.
func (m *Marker) CIR() float64 { return m.cir }

// Recv implements netsim.Handler: colour the packet and forward it.
func (m *Marker) Recv(p *netsim.Packet) {
	now := m.sim.Now()
	m.tokens += m.cir * (now - m.last).Seconds()
	if m.tokens > m.cbs {
		m.tokens = m.cbs
	}
	m.last = now

	if float64(p.Size) <= m.tokens {
		m.tokens -= float64(p.Size)
		p.Mark = netsim.MarkGreen
		m.Green.Packets++
		m.Green.Bytes += p.Size
	} else {
		p.Mark = netsim.MarkRed
		m.Red.Packets++
		m.Red.Bytes += p.Size
	}
	m.next.Recv(p)
}

// RIO is the RED In/Out queue (Clark & Fang 1998) realising the AF PHB:
// one physical FIFO with two drop curves. Green (in-profile) packets are
// dropped based on the average number of *green* packets queued, with
// permissive thresholds; red (out-of-profile) packets are dropped based
// on the average *total* queue, with aggressive thresholds. Under
// congestion red traffic is shed first, protecting the reservations.
//
// RIO implements netsim.Queue.
type RIO struct {
	In        netsim.REDCurve // green curve (based on avg green occupancy)
	Out       netsim.REDCurve // red curve (based on avg total occupancy)
	Wq        float64
	LimitPkts int

	q      netsim.DropTail // zero value: an unbounded FIFO; LimitPkts above bounds it
	greens int

	avgIn    float64
	avgTotal float64

	DropsIn     int // probabilistic drops of green packets
	DropsOut    int // probabilistic drops of red packets
	ForcedDrops int // hard-limit drops
}

// DefaultRIO returns a RIO queue with the conventional protective
// parameter split for a queue bounded to limit packets: the green curve
// only engages when the queue is mostly full, the red curve engages
// early and aggressively.
func DefaultRIO(limit int) *RIO {
	return &RIO{
		In:        netsim.REDCurve{MinTh: float64(limit) * 0.4, MaxTh: float64(limit) * 0.8, MaxP: 0.02},
		Out:       netsim.REDCurve{MinTh: float64(limit) * 0.1, MaxTh: float64(limit) * 0.4, MaxP: 0.5},
		Wq:        0.002,
		LimitPkts: limit,
	}
}

// Enqueue implements netsim.Queue.
func (r *RIO) Enqueue(now netsim.Time, rng *rand.Rand, p *netsim.Packet) bool {
	total := r.q.Len()
	green := p.Mark == netsim.MarkGreen
	r.avgTotal = (1-r.Wq)*r.avgTotal + r.Wq*float64(total)
	if green {
		r.avgIn = (1-r.Wq)*r.avgIn + r.Wq*float64(r.greens)
	}

	if r.LimitPkts > 0 && total >= r.LimitPkts {
		r.ForcedDrops++
		return false
	}
	switch {
	case green && r.In.Drop(r.avgIn, rng):
		r.DropsIn++
		return false
	case !green && r.Out.Drop(r.avgTotal, rng):
		r.DropsOut++
		return false
	}
	r.q.Enqueue(now, rng, p)
	if green {
		r.greens++
	}
	return true
}

// Dequeue implements netsim.Queue.
func (r *RIO) Dequeue(now netsim.Time) *netsim.Packet {
	p := r.q.Dequeue(now)
	if p != nil && p.Mark == netsim.MarkGreen {
		r.greens--
	}
	return p
}

// Len implements netsim.Queue.
func (r *RIO) Len() int { return r.q.Len() }

// Bytes implements netsim.Queue.
func (r *RIO) Bytes() int { return r.q.Bytes() }

// GreenLen returns the number of green packets currently queued.
func (r *RIO) GreenLen() int { return r.greens }

// TokenInterval returns the time to accumulate tokens for one packet of
// the given size at rate cir — a helper for pacing calculations.
func TokenInterval(cir float64, size int) time.Duration {
	return time.Duration(float64(size) / cir * float64(time.Second))
}
