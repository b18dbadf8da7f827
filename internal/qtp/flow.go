package qtp

import (
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// WireOverhead is the per-frame IP+UDP overhead added to QTP frames on
// simulated links, so rate comparisons against TCP (IP+TCP = 40 B) are
// apples to apples.
const WireOverhead = 28

// FlowConfig describes one QTP flow inside the simulator.
type FlowConfig struct {
	// ID tags the flow's packets for routing and tracing; both endpoints
	// stamp uint32(ID) as the connection ID.
	ID netsim.FlowID
	// Profile is the composition the flow runs.
	Profile core.Profile
	// Handshake, when true, performs the real 3-way negotiation over the
	// simulated path (Constraints bound the responder). When false, both
	// endpoints StartDirect with Profile and RTTHint.
	Handshake   bool
	Constraints core.Constraints
	// RTTHint seeds the sender's RTT when Handshake is false.
	RTTHint time.Duration
	// Fwd is the path entry for data frames (sender -> receiver);
	// Rev is the path entry for feedback (receiver -> sender).
	Fwd, Rev netsim.Handler
	// Bulk keeps the send backlog topped up forever; otherwise Source
	// supplies the application workload (may be nil for no data).
	Bulk   bool
	Source workload.Source
	// Start delays the flow's first action.
	Start netsim.Time
}

// Flow wires two Conn endpoints through the simulator and keeps them
// pumped: every inbound frame, timer and workload event reschedules the
// endpoint's next wake-up.
type Flow struct {
	sim *netsim.Sim
	cfg FlowConfig

	Sender   *Conn
	Receiver *Conn

	sendTimer *netsim.Timer
	recvTimer *netsim.Timer

	// DeliveredBytes counts application bytes read at the receiver.
	DeliveredBytes int
	// StreamDelivered counts delivered bytes per stream.
	StreamDelivered map[uint64]int
	// DeliveredAt, if non-nil, observes every delivered chunk.
	DeliveredAt func(now netsim.Time, n int)
	// StreamDeliveredAt, if non-nil, additionally observes the stream.
	StreamDeliveredAt func(now netsim.Time, id uint64, n int)
}

// StartFlow creates the endpoints, registers them, and schedules the
// flow's start.
func StartFlow(sim *netsim.Sim, cfg FlowConfig) *Flow {
	f := &Flow{sim: sim, cfg: cfg}
	prof := cfg.Profile.Normalize()
	f.Sender = NewConn(Config{
		Initiator: true,
		Profile:   prof,
		ConnID:    uint32(cfg.ID),
	})
	f.Receiver = NewConn(Config{
		Initiator:   false,
		Constraints: cfg.Constraints,
		ConnID:      uint32(cfg.ID),
	})

	sim.At(cfg.Start, func() {
		now := sim.Now()
		if cfg.Handshake {
			f.Sender.Start(now)
		} else {
			f.Sender.StartDirect(now, prof, cfg.RTTHint)
			f.Receiver.StartDirect(now, prof, 0)
		}
		f.topUp()
		f.scheduleSource()
		f.pumpSender()
	})
	return f
}

// SenderEntry returns the handler the reverse path must deliver to.
func (f *Flow) SenderEntry() netsim.Handler {
	return netsim.HandlerFunc(func(p *netsim.Packet) {
		frame, ok := p.Payload.([]byte)
		if !ok {
			return
		}
		_ = f.Sender.HandleFrame(f.sim.Now(), frame)
		f.topUp()
		f.pumpSender()
	})
}

// ReceiverEntry returns the handler the forward path must deliver to.
func (f *Flow) ReceiverEntry() netsim.Handler {
	return netsim.HandlerFunc(func(p *netsim.Packet) {
		frame, ok := p.Payload.([]byte)
		if !ok {
			return
		}
		_ = f.Receiver.HandleFrame(f.sim.Now(), frame)
		f.drainReads()
		f.pumpReceiver()
	})
}

func (f *Flow) drainReads() {
	for {
		id, chunk, ok := f.Receiver.ReadAny()
		if !ok {
			return
		}
		f.DeliveredBytes += len(chunk)
		if f.StreamDelivered == nil {
			f.StreamDelivered = make(map[uint64]int)
		}
		f.StreamDelivered[id] += len(chunk)
		if f.DeliveredAt != nil {
			f.DeliveredAt(f.sim.Now(), len(chunk))
		}
		if f.StreamDeliveredAt != nil {
			f.StreamDeliveredAt(f.sim.Now(), id, len(chunk))
		}
		// Delivered chunks are pooled; the flow is its own application.
		bufpool.PutChunk(chunk)
	}
}

// topUp keeps a bulk sender's backlog full. Write copies into the
// backlog, so the scratch buffer is pooled, not allocated per refill.
func (f *Flow) topUp() {
	if !f.cfg.Bulk {
		return
	}
	const window = 64 << 10
	if f.Sender.BacklogLen() < window/2 {
		buf := bufpool.Get()
		f.Sender.Write(buf[:window])
		bufpool.Put(buf)
	}
}

// scheduleSource replays the workload into Write calls.
func (f *Flow) scheduleSource() {
	if f.cfg.Source == nil {
		return
	}
	at, size, ok := f.cfg.Source.Next()
	if !ok {
		f.Sender.CloseSend()
		f.pumpSender()
		return
	}
	f.sim.At(f.cfg.Start+at, func() {
		if size <= bufpool.Size {
			buf := bufpool.Get()
			f.Sender.Write(buf[:size])
			bufpool.Put(buf)
		} else {
			f.Sender.Write(make([]byte, size))
		}
		f.pumpSender()
		f.scheduleSource()
	})
}

// CloseSend ends the application stream and pumps the resulting frames.
func (f *Flow) CloseSend() {
	f.Sender.CloseSend()
	f.pumpSender()
}

// Pump re-drives the sender after out-of-band calls on f.Sender (e.g.
// WriteStream/CloseStream): frames the call made due are transmitted
// and the wake-up timer rescheduled.
func (f *Flow) Pump() { f.pumpSender() }

// pumpSender drains outgoing frames from the sender endpoint and
// schedules its next wake-up.
func (f *Flow) pumpSender() { f.pump(f.Sender, f.cfg.Fwd, &f.sendTimer, f.pumpSenderCB) }

// pumpReceiver does the same for the receiver endpoint.
func (f *Flow) pumpReceiver() { f.pump(f.Receiver, f.cfg.Rev, &f.recvTimer, f.pumpReceiverCB) }

func (f *Flow) pumpSenderCB()   { f.topUp(); f.pumpSender() }
func (f *Flow) pumpReceiverCB() { f.pumpReceiver() }

func (f *Flow) pump(c *Conn, out netsim.Handler, timer **netsim.Timer, again func()) {
	now := f.sim.Now()
	for {
		frame, ok := c.PollFrame(now)
		if !ok {
			break
		}
		out.Recv(&netsim.Packet{
			Flow:    f.cfg.ID,
			Size:    len(frame) + WireOverhead,
			Payload: frame,
		})
	}
	if *timer != nil {
		(*timer).Stop()
		*timer = nil
	}
	if at, ok := c.NextWake(now); ok {
		*timer = f.sim.At(at, again)
	}
}
