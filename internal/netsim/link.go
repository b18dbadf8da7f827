package netsim

import (
	"fmt"
	"time"
)

// Link is a unidirectional network link: a queue feeding a transmitter
// of finite rate, followed by a fixed propagation delay and an optional
// loss model, delivering to a Handler.
//
// Packets are serialized: a packet of size S occupies the transmitter
// for S/Rate seconds. This is where congestion happens.
type Link struct {
	Name  string
	sim   *Sim
	rate  float64 // bytes per second
	delay Time
	queue Queue
	loss  LossModel
	dst   Handler

	txing  *Packet       // on the transmitter; nil when idle
	flight ring[arrival] // transmitted, not lost, propagating
	txDone Timer         // fires l.transmitted, pending while txing != nil
	arrive Timer         // fires l.deliver for flight's oldest packet

	// Counters (packets / bytes).
	Sent        Counter // accepted into the queue
	Delivered   Counter // handed to dst
	QueueDrops  Counter // rejected by the queue
	MediumDrops Counter // lost by the loss model

	// Tap, when non-nil, observes every delivered packet just before it
	// reaches dst. Used by experiments to record rate series.
	Tap func(now Time, p *Packet)
}

// Counter tallies packets and bytes.
type Counter struct {
	Packets int
	Bytes   int
}

func (c *Counter) add(p *Packet) {
	c.Packets++
	c.Bytes += p.Size
}

// arrival is a packet in flight and the place its arrival takes in the
// event queue.
type arrival struct {
	p   *Packet
	at  Time
	seq uint64
}

// LinkConfig configures NewLink.
type LinkConfig struct {
	Name  string
	Rate  float64 // bytes per second; must be positive
	Delay Time    // propagation delay
	Queue Queue   // nil means DropTail(100)
	Loss  LossModel
	Dst   Handler
}

// NewLink creates a link inside sim. The destination handler must be set.
func NewLink(sim *Sim, cfg LinkConfig) *Link {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("netsim: link %q needs positive rate", cfg.Name))
	}
	if cfg.Dst == nil {
		panic(fmt.Sprintf("netsim: link %q needs a destination", cfg.Name))
	}
	q := cfg.Queue
	if q == nil {
		q = NewDropTail(100)
	}
	l := &Link{
		Name:  cfg.Name,
		sim:   sim,
		rate:  cfg.Rate,
		delay: cfg.Delay,
		queue: q,
		loss:  cfg.Loss,
		dst:   cfg.Dst,
	}
	l.txDone = Timer{fn: l.transmitted, index: -1, sim: sim}
	l.arrive = Timer{fn: l.deliver, index: -1, sim: sim}
	return l
}

// Rate returns the link rate in bytes/second.
func (l *Link) Rate() float64 { return l.rate }

// Delay returns the propagation delay.
func (l *Link) Delay() Time { return l.delay }

// Recv implements Handler so links can be chained behind routers.
func (l *Link) Recv(p *Packet) { l.Send(p) }

// Send enqueues p for transmission.
func (l *Link) Send(p *Packet) {
	if !l.queue.Enqueue(l.sim.Now(), l.sim.Rand(), p) {
		l.QueueDrops.add(p)
		return
	}
	l.Sent.add(p)
	if l.txing == nil {
		l.transmitNext()
	}
}

func (l *Link) transmitNext() {
	p := l.queue.Dequeue(l.sim.Now())
	l.txing = p
	if p == nil {
		return
	}
	txTime := Time(float64(p.Size) / l.rate * float64(time.Second))
	l.sim.seq++
	l.sim.queue(&l.txDone, l.sim.now+txTime, l.sim.seq)
}

// transmitted runs when the last bit of l.txing has left: the
// transmitter is free for the next packet at once, and delivery happens
// after propagation. The arrival's place in the event queue is drawn
// now, after the loss draw, and kept with the packet; its timer is
// queued here only if no earlier packet is in flight.
func (l *Link) transmitted() {
	p := l.txing
	l.transmitNext()
	if l.loss != nil && l.loss.Lose(l.sim.Rand(), p) {
		l.MediumDrops.add(p)
		return
	}
	l.sim.seq++
	// A negative delay delivers at once, as At runs a past time now.
	a := arrival{p: p, at: l.sim.now + max(l.delay, 0), seq: l.sim.seq}
	l.flight.push(a)
	if l.flight.len() == 1 {
		l.sim.queue(&l.arrive, a.at, a.seq)
	}
}

// deliver hands the oldest packet in flight to the destination and
// queues the next one's arrival at the place it was given. The delay is
// the same for every packet, so arrivals come in the order the
// transmitter finished them.
func (l *Link) deliver() {
	p := l.flight.pop().p
	if l.flight.len() > 0 {
		next := l.flight.front()
		l.sim.queue(&l.arrive, next.at, next.seq)
	}
	l.Delivered.add(p)
	if l.Tap != nil {
		l.Tap(l.sim.Now(), p)
	}
	l.dst.Recv(p)
}

// Utilization returns delivered bytes divided by capacity over elapsed
// time (0 if no time has passed).
func (l *Link) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(l.Delivered.Bytes) / (l.rate * elapsed.Seconds())
}

// Router forwards packets to output links by flow ID, with an optional
// default route. It models the interior node of the dumbbell topologies
// used throughout the evaluation.
type Router struct {
	routes map[FlowID]Handler
	def    Handler
}

// NewRouter returns a router with the given default next hop (may be nil,
// in which case packets without a route are dropped silently).
func NewRouter(def Handler) *Router {
	return &Router{routes: make(map[FlowID]Handler), def: def}
}

// Route directs packets of flow f to h.
func (r *Router) Route(f FlowID, h Handler) { r.routes[f] = h }

// Recv implements Handler.
func (r *Router) Recv(p *Packet) {
	if h, ok := r.routes[p.Flow]; ok {
		h.Recv(p)
		return
	}
	if r.def != nil {
		r.def.Recv(p)
	}
}
