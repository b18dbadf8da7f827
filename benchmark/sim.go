package main

import (
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// simConfig describes a virtual-time path between a sending and a
// receiving qtp.Conn: no sockets, no crypto, no goroutines.
type simConfig struct {
	profile core.Profile
	fwdRate float64       // bytes/s, data direction
	revRate float64       // bytes/s, feedback direction
	delay   time.Duration // one-way propagation, each direction
	queue   int           // forward DropTail limit, packets
	loss    float64       // forward Bernoulli loss probability
	streams int           // 1: legacy single-stream path; 2: MaxStreams profile, two streams
	// every, when positive, makes the writer open loop: one block every
	// interval, whatever the transport does. Zero is the closed loop,
	// which keeps one block queued at all times.
	every time.Duration
}

// lossyPath is the sim_lossy workload: the paper's regime, gTFRC
// holding an 8 MB/s target over a 100 Mbit/s, 60 ms RTT path that loses
// 1% of data packets, with SACK recovering them.
var lossyPath = simConfig{
	profile: core.QTPAF(8e6),
	fwdRate: 12.5e6,
	revRate: 125e6,
	delay:   30 * time.Millisecond,
	queue:   200,
	loss:    0.01,
	streams: 1,
}

// simRun pumps the two connections through netsim links. The harness
// owns the pump, so every call into qtp can carry a span.
type simRun struct {
	cfg      simConfig
	sim      *netsim.Sim
	snd, rcv *qtp.Conn
	fwd, rev *netsim.Link
	sndTimer *netsim.Timer
	rcvTimer *netsim.Timer
	tr       *tracer // nil until the traced window opens

	pat     pattern
	ids     []uint64 // stream IDs, in the order operations rotate over them
	vers    []*verifier
	block   []byte
	pending []byte // tail of a block the backlog cap refused
	nextOp  uint64
	stopped bool // no new blocks; the stream has been closed
	free    [][]byte
}

func newSimRun(seed int64, cfg simConfig) (*simRun, error) {
	s := &simRun{cfg: cfg, sim: netsim.New(seed), pat: newPattern(seed), block: make([]byte, blockSize)}
	prof := cfg.profile
	if cfg.streams > 1 {
		prof.MaxStreams = packet.MaxStreams
	}
	prof = prof.Normalize()
	s.snd = qtp.NewConn(qtp.Config{Initiator: true, Profile: prof, ConnID: 1})
	s.rcv = qtp.NewConn(qtp.Config{ConnID: 1})
	var loss netsim.LossModel
	if cfg.loss > 0 {
		loss = netsim.Bernoulli{P: cfg.loss}
	}
	s.fwd = netsim.NewLink(s.sim, netsim.LinkConfig{
		Name: "fwd", Rate: cfg.fwdRate, Delay: cfg.delay,
		Queue: netsim.NewDropTail(cfg.queue), Loss: loss,
		Dst: netsim.HandlerFunc(s.onData),
	})
	s.rev = netsim.NewLink(s.sim, netsim.LinkConfig{
		Name: "rev", Rate: cfg.revRate, Delay: cfg.delay,
		Dst: netsim.HandlerFunc(s.onAck),
	})
	s.snd.StartDirect(0, prof, 2*cfg.delay)
	s.rcv.StartDirect(0, prof, 0)
	s.ids = []uint64{0}
	for i := 1; i < cfg.streams; i++ {
		id, err := s.snd.OpenStream(packet.StreamReliableOrdered, 0)
		if err != nil {
			return nil, fmt.Errorf("open stream: %w", err)
		}
		s.ids = append(s.ids, id)
	}
	for i := range s.ids {
		s.vers = append(s.vers, newVerifier(s.pat, blockSize, uint64(i), uint64(len(s.ids))))
	}
	if cfg.every > 0 {
		s.sim.At(0, s.writeTimer)
	}
	s.pumpSender()
	return s, nil
}

// writeTimer is the open-loop writer's tick.
func (s *simRun) writeTimer() {
	if s.stopped {
		return
	}
	s.write(s.sim.Now())
	s.pumpSender()
	s.sim.After(s.cfg.every, s.writeTimer)
}

// topUp is the closed-loop writer: whenever less than one block is
// queued it writes the next one.
func (s *simRun) topUp(now time.Duration) {
	for s.cfg.every == 0 && !s.stopped && s.snd.BacklogLen() < blockSize {
		if !s.write(now) {
			return
		}
	}
}

// write queues the next block, stamped with the virtual time, or the
// rest of one the backlog cap cut short; it reports whether the
// backlog took anything.
func (s *simRun) write(now time.Duration) bool {
	if len(s.pending) == 0 {
		s.pat.fill(s.block, s.nextOp, int64(now))
		s.pending = s.block
		s.nextOp++
	}
	id := s.ids[int(s.nextOp-1)%len(s.ids)]
	s.tr.begin(spWrite)
	n := s.snd.WriteStream(id, s.pending)
	s.tr.end()
	s.pending = s.pending[n:]
	return n > 0
}

func (s *simRun) getBuf() []byte {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b[:0]
	}
	return make([]byte, 0, 2048)
}

func (s *simRun) pumpSender() {
	now := s.sim.Now()
	s.topUp(now)
	s.pump(now, s.snd, s.fwd, spSenderPoll)
	s.rearm(now, s.snd, &s.sndTimer, spSenderWake, s.senderTimer)
}

func (s *simRun) pumpReceiver() {
	now := s.sim.Now()
	s.pump(now, s.rcv, s.rev, spReceiverPoll)
	s.rearm(now, s.rcv, &s.rcvTimer, spReceiverWake, s.receiverTimer)
}

// pump puts every frame c has due on the link.
func (s *simRun) pump(now time.Duration, c *qtp.Conn, out *netsim.Link, poll spanName) {
	for {
		buf := s.getBuf()
		s.tr.begin(poll)
		frame, ok := c.PollFrameAppend(now, buf)
		s.tr.end()
		if !ok {
			s.free = append(s.free, buf)
			return
		}
		out.Send(&netsim.Packet{Flow: 1, Size: len(frame) + qtp.WireOverhead, Payload: frame})
	}
}

// rearm moves c's wake-up timer to its next deadline.
func (s *simRun) rearm(now time.Duration, c *qtp.Conn, timer **netsim.Timer, wake spanName, fn func()) {
	if *timer != nil {
		(*timer).Stop()
		*timer = nil
	}
	s.tr.begin(wake)
	at, ok := c.NextWake(now)
	s.tr.end()
	if ok {
		*timer = s.sim.At(at, fn)
	}
}

func (s *simRun) senderTimer() {
	s.tr.begin(spSenderEvent)
	s.pumpSender()
	s.tr.end()
}

func (s *simRun) receiverTimer() {
	s.tr.begin(spReceiverEvent)
	s.pumpReceiver()
	s.tr.end()
}

// onAck is the reverse link's destination: feedback reaches the sender.
func (s *simRun) onAck(p *netsim.Packet) {
	frame := p.Payload.([]byte)
	s.tr.begin(spSenderEvent)
	s.tr.begin(spSenderHandle)
	_ = s.snd.HandleFrame(s.sim.Now(), frame) // a refused frame shows in qtp.decode_errors
	s.tr.end()
	s.free = append(s.free, frame) // HandleFrame does not retain frame memory
	s.pumpSender()
	s.tr.end()
}

// onData is the forward link's destination: data reaches the receiver,
// and whatever it releases in order is read and verified at once.
func (s *simRun) onData(p *netsim.Packet) {
	frame := p.Payload.([]byte)
	now := s.sim.Now()
	s.tr.begin(spReceiverEvent)
	s.tr.begin(spReceiverHandle)
	_ = s.rcv.HandleFrame(now, frame)
	s.tr.end()
	s.free = append(s.free, frame)
	for {
		s.tr.begin(spRead)
		id, chunk, ok := s.rcv.ReadAny()
		s.tr.end()
		if !ok {
			break
		}
		for i, sid := range s.ids {
			if sid == id {
				s.vers[i].feed(chunk, int64(now))
			}
		}
		bufpool.PutChunk(chunk)
	}
	s.pumpReceiver()
	s.tr.end()
}

// finish closes the stream and runs the path until the receiver has
// everything or limit virtual time has passed.
func (s *simRun) finish(limit time.Duration) {
	s.stopped = true
	for _, id := range s.ids {
		_ = s.snd.CloseStream(id) // a stream that is already closed needs nothing
	}
	s.pumpSender()
	end := s.sim.Now() + limit
	for !s.rcv.Finished() && s.sim.Now() < end {
		s.sim.Run(s.sim.Now() + 100*time.Millisecond)
	}
}
