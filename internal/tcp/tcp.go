// Package tcp is a from-scratch TCP NewReno sender with SACK-based loss
// recovery (RFC 5681/6582 congestion control, RFC 2018 SACK, RFC 6298
// RTT/RTO) running on the internal/netsim simulator. It is the baseline
// the paper compares against: the protocol that fails to claim its
// DiffServ/AF reservation (E1-E3) and saws through multimedia paths
// (E7, E9).
//
// Only the machinery the experiments exercise is implemented: a
// unidirectional bulk/limited data stream with an ACK-clocked window,
// immediate ACKs, and timestamp-based RTT. There is no handshake or
// bidirectional data — flows start established, like ns-2's TCP agents.
package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/seqspace"
)

// HeaderBytes is the on-wire overhead per TCP segment (IP + TCP).
const HeaderBytes = 40

// maxSACKBlocks is the SACK option capacity (RFC 2018 with timestamps).
const maxSACKBlocks = 3

// sq maps a byte offset to its low 32 bits, the sequence space the SACK
// range sets use, as TCP's own sequence numbers do; stream positions
// stay int64. 32 bits are enough: no flow keeps 2^31 bytes between its
// lowest and highest tracked offset, so every tracked offset is within
// seqspace's comparison horizon of every other.
func sq(off int64) seqspace.Seq { return seqspace.Seq(uint32(off)) }

// offset maps s back to the byte offset nearest ref.
func offset(s seqspace.Seq, ref int64) int64 { return ref + int64(sq(ref).Distance(s)) }

// Segment is the simulator payload for TCP packets in both directions.
type Segment struct {
	// Data direction.
	Seq int64 // first byte offset
	Len int   // payload length; 0 for pure ACKs
	Fin bool

	// ACK direction.
	Ack   int64            // cumulative acknowledgment
	SACKs []seqspace.Range // selective acknowledgment blocks, as sq offsets
	IsAck bool

	// Timestamps (RFC 7323 style, simulator clock).
	TS     netsim.Time
	TSEcho netsim.Time
}

// Config configures one TCP flow.
type Config struct {
	// ID tags packets for routing/tracing.
	ID netsim.FlowID
	// Fwd carries data sender->receiver, Rev carries ACKs back.
	Fwd, Rev netsim.Handler
	// Total bytes to send; 0 means unlimited (bulk).
	Total int64
	// Start delays the first transmission.
	Start netsim.Time
	// MinRTO floors the retransmission timer. The default is the
	// RFC 6298 (and RFC 2988, contemporary with the paper) mandated
	// 1 second; pass 200 ms for modern-Linux-style behaviour.
	MinRTO time.Duration
}

const (
	// mss is the payload bytes per segment, matching QTP.
	mss = 1400
	// initialCwnd is the first window, in segments.
	initialCwnd = 2
	// maxCwnd caps the window in bytes: effectively uncapped for the
	// scenarios here.
	maxCwnd = 1 << 20
)

// Flow is a running TCP connection: sender and receiver endpoints wired
// through the simulator.
type Flow struct {
	sim *netsim.Sim
	cfg Config

	snd *sender
	rcv *receiver
}

// Stats summarises a flow's progress.
type Stats struct {
	BytesSent      int64 // first transmissions
	BytesRetrans   int64
	SegmentsSent   int
	Retransmits    int
	Timeouts       int
	FastRecoveries int
	DeliveredBytes int64 // in-order bytes at the receiver
	AckedBytes     int64
}

// StartFlow creates and schedules a TCP flow.
func StartFlow(sim *netsim.Sim, cfg Config) *Flow {
	if cfg.MinRTO == 0 {
		cfg.MinRTO = time.Second
	}
	f := &Flow{sim: sim, cfg: cfg}
	f.snd = newSender(f)
	f.rcv = newReceiver(f)
	sim.At(cfg.Start, func() { f.snd.trySend() })
	return f
}

// ReceiverEntry returns the handler the forward path delivers to.
func (f *Flow) ReceiverEntry() netsim.Handler { return f.rcv }

// SenderEntry returns the handler the reverse path delivers to.
func (f *Flow) SenderEntry() netsim.Handler { return f.snd }

// Stats returns a combined snapshot.
func (f *Flow) Stats() Stats {
	s := f.snd.stats
	s.DeliveredBytes = f.rcv.delivered
	return s
}

// Cwnd returns the sender congestion window in bytes.
func (f *Flow) Cwnd() float64 { return f.snd.cwnd }

// SRTT returns the smoothed RTT estimate.
func (f *Flow) SRTT() time.Duration { return f.snd.srtt }

// Done reports whether a finite transfer has been fully acknowledged.
func (f *Flow) Done() bool {
	return f.cfg.Total > 0 && f.snd.sndUna >= f.cfg.Total
}
