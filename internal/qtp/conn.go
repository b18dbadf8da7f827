// Package qtp implements the versatile transport protocol endpoint: a
// sans-IO connection state machine assembled from the negotiated
// micro-protocols (TFRC or gTFRC rate control, SACK reliability, classic
// or QTPlight feedback).
//
// Data travels on streams, through one engine (stream.go): every Conn
// owns stream 0 from NewConn on, Write/Read/CloseSend are its stream-0
// cases, and a connection that did not negotiate the streams capability
// is simply one whose only stream is 0 and whose data frames are framed
// without the stream prefix.
//
// A Conn consumes absolute times and inbound frames (HandleFrame) and
// produces outbound frames on request (PollFrame) plus the next instant
// it needs the clock (NextWake). Drivers supply the I/O:
// internal/qtp.Flow runs Conns inside the deterministic simulator, and
// internal/qtpnet runs the same Conns over real UDP sockets.
package qtp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/gtfrc"
	"repro/internal/packet"
	"repro/internal/qcrypto"
	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

// State is the connection lifecycle state.
type State int

// Connection states.
const (
	StateIdle State = iota
	StateConnecting
	StateEstablished
	StateClosing
	StateClosed
)

var stateNames = [...]string{"idle", "connecting", "established", "closing", "closed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Config configures a connection endpoint.
//
// The connection initiator is also the data sender: it proposes a
// profile in its Connect frame and streams data once the handshake
// completes. The responder enforces Constraints and is the data
// receiver. (Receiver-initiated fetches are an application concern.)
type Config struct {
	// Initiator marks the connecting/sending side.
	Initiator bool
	// Profile is the initiator's proposal. Ignored by the responder.
	Profile core.Profile
	// Constraints bound what the responder grants. Ignored by the
	// initiator.
	Constraints core.Constraints
	// ConnID identifies the connection in every frame. It doubles as the
	// default for LocalID and as the initial outbound stamp, which keeps
	// the pre-multiplexing symmetric behaviour: both sides configured
	// with the same ConnID interoperate exactly as before.
	ConnID uint32
	// LocalID, when non-zero, is the identifier this endpoint expects in
	// the header of inbound frames. A multiplexed driver assigns each
	// connection a socket-unique LocalID and demultiplexes on it; the
	// value is carried to the peer in the Connect/Accept handshake TLV
	// so the peer stamps it on everything it sends afterwards. A sharded
	// driver additionally encodes the owning shard in the top bits
	// (packet.CIDShard), so any shard of a reuseport group can route a
	// stray frame to its owner without shared state; the state machine
	// itself treats the ID as opaque.
	LocalID uint32

	// Encrypt runs the encrypted handshake: Connect/Accept exchange
	// X25519 key shares and every other frame must travel inside a
	// sealed datagram (the driver seals/opens via CryptoSession). A peer
	// without a key share is rejected — there is no plaintext fallback.
	Encrypt bool
	// Tickets, on an encrypted responder, mints session tickets into
	// Accepts and redeems them for 0-RTT resumption. Drivers share one
	// minter across all connections of a listener.
	Tickets *qcrypto.Minter
	// Resume, on an encrypted initiator, arms 0-RTT: if its profile
	// matches the proposal, the Connect carries the ticket and data is
	// sealed under the early keys in the first flight.
	Resume *qcrypto.Resumption

	// startSeq is the first connection-level sequence number: the space
	// frame headers count in, shared by all streams — and the one the
	// unprefixed stream 0 counts in too. streamStartSeq is the first
	// sequence number of every prefixed stream's own space. NewConn sets
	// both to 1; only the in-package wraparound test starts them near the
	// top of the space.
	startSeq, streamStartSeq seqspace.Seq
}

// Stats accumulates endpoint counters for experiments and monitoring.
type Stats struct {
	DataFramesSent int
	DataBytesSent  int // payload bytes, first transmissions
	RetransFrames  int
	RetransBytes   int
	FeedbackFrames int // classic receiver reports sent
	FeedbackBytes  int // wire bytes of those reports
	SACKFrames     int // light acknowledgment frames sent
	SACKBytes      int // wire bytes of those frames
	FramesReceived int
	DeliveredBytes int
	DecodeErrors   int
	RefusedFrames  int // data frames refused unacknowledged at deliveryBound: retransmitted, never lost

	// RetriesReceived counts stateless Retry challenges answered during
	// the handshake (each one restarts the Connect with the server's
	// source-address token attached).
	RetriesReceived int

	StreamResetsSent int // forward FINs emitted for expired streams
	StreamResetsRcvd int // forward FINs applied to receive streams
}

// Conn is one endpoint of a QTP connection. It is not safe for
// concurrent use; drivers serialize access (the simulator is single
// threaded; the UDP driver, qtpnet's shared endpoint, guards each Conn
// with a per-connection mutex).
type Conn struct {
	cfg     Config
	profile core.Profile
	state   State

	// Connection identifiers. localID is what we require on inbound
	// frames; remoteID is what we stamp on outbound frames (the peer's
	// local ID once its handshake TLV has been seen).
	localID  uint32
	remoteID uint32

	// Control-plane state.
	ctrlPending packet.Type   // control frame owed to the peer (0 = none)
	ctrlDue     time.Duration // when to (re)send it
	ctrlTries   int
	token       []byte // source-address token from a Retry, echoed in Connects

	// The handshake payloads, pinned once (see pinConnect, onConnect)
	// and replayed byte for byte by every (re)transmission. Encrypted,
	// they are also each side's contribution to the transcript: the
	// initiator keeps the Accept it received, the responder the Connect.
	connectPayload []byte
	acceptPayload  []byte

	// Timestamp echo state.
	lastPeerTS   uint32
	lastPeerTSAt time.Duration
	havePeerTS   bool

	// Sender-side machines (nil on the receiving side).
	rc         core.RateController
	tfrcSnd    *tfrc.Sender
	nextSeq    seqspace.Seq // next connection-level sequence number
	nextSendAt time.Duration
	// paceHeld records, at the last poll that had nothing to send, that
	// only the pacing clock held fresh data back (see pace).
	paceHeld bool
	started  bool

	// Receiver-side machines (nil on the sending side). ackNow means an
	// acknowledgment is owed on the next poll; nextFBAt is TFRC's
	// periodic report.
	tfrcRecv *tfrc.Receiver
	ackNow   bool
	nextFBAt time.Duration

	// Stream state (see stream.go). The sender owns sendStreams (stream
	// 0 from NewConn on), the receiver recv* plus received, what arrived
	// at the connection level; delivered chunks wait on their stream's
	// ready queue until ReadStream pops them. multi is the framing
	// choice: data frames carry the stream prefix and feedback the
	// per-stream ack tail, and more streams than 0 may be opened.
	multi        bool
	sendStreams  []*sendStream
	sendByID     map[uint64]*sendStream
	nextStreamID uint64
	rrRetx       int // round-robin cursors over sendStreams
	rrData       int
	recvByID     map[uint64]*recvStream
	recvOrder    []*recvStream
	acceptQ      []uint64
	retired      map[uint64]StreamStats // final snapshots of retired streams
	received     seqspace.Received
	ackTail      []packet.StreamAck

	// Scratch state for frame building/parsing.
	scratch  []byte
	ackBuf   packet.Feedback // inbound acknowledgments; a bare vector fills ackBuf.SACK
	blockBuf []seqspace.Range

	// Handshake crypto state (crypto.go); zero-valued when Encrypt is
	// off.
	cr cryptoState

	stats Stats
}

// Frame-type errors surfaced by HandleFrame, each returned bare.
var (
	ErrClosed    = errors.New("qtp: connection closed")
	ErrNotSender = errors.New("qtp: not the sending side")
	ErrBadState  = errors.New("qtp: frame invalid in this state")
	// ErrDeliveryFull refuses a data frame: its stream is at deliveryBound.
	ErrDeliveryFull = errors.New("qtp: stream delivery queue full, data frame refused")
)

// NewConn creates an endpoint. Call Start on the initiator to begin the
// handshake; the responder just feeds inbound frames to HandleFrame.
func NewConn(cfg Config) *Conn {
	if cfg.startSeq == 0 {
		cfg.startSeq = 1
	}
	if cfg.streamStartSeq == 0 {
		cfg.streamStartSeq = 1
	}
	c := &Conn{cfg: cfg, state: StateIdle, nextSeq: cfg.startSeq}
	c.localID = cfg.LocalID
	if c.localID == 0 {
		c.localID = cfg.ConnID
	}
	c.remoteID = cfg.ConnID
	if cfg.Initiator {
		c.profile = cfg.Profile.Normalize()
		// Stream 0 exists before the handshake so Write may precede it;
		// buildMachines gives it the negotiated delivery mode.
		s0 := newSendStream(0, packet.StreamReliableOrdered, 0, cfg.startSeq)
		c.sendStreams = []*sendStream{s0}
		c.sendByID = map[uint64]*sendStream{0: s0}
		c.nextStreamID = 1
	} else {
		c.received = seqspace.ReceivedFrom(cfg.startSeq)
		c.recvByID = make(map[uint64]*recvStream)
	}
	return c
}

// LocalID returns the identifier this endpoint expects on inbound
// frames; drivers key their demultiplexing tables on it.
func (c *Conn) LocalID() uint32 { return c.localID }

// RemoteID returns the identifier stamped on outbound frames — the
// peer's local ID once learned from its handshake TLV, until then the
// legacy symmetric ConnID.
func (c *Conn) RemoteID() uint32 { return c.remoteID }

// Start begins the handshake (initiator only).
func (c *Conn) Start(now time.Duration) {
	if !c.cfg.Initiator || c.state != StateIdle {
		return
	}
	c.state = StateConnecting
	c.ctrlPending = packet.TypeConnect
	c.ctrlDue = now
	if c.cfg.Encrypt {
		if err := c.startCrypto(); err != nil {
			// No entropy for a key share means no connection: the
			// encrypted handshake cannot degrade to plaintext.
			c.state = StateClosed
			c.ctrlPending = 0
			return
		}
	}
	c.pinConnect()
	if c.cr.early {
		// 0-RTT: the data machines start now, so application data rides
		// the first flight sealed under the early keys.
		c.buildMachines(now)
		c.rc.Start(now)
		c.nextSendAt = now
		c.started = true
	}
}

// StartDirect skips the handshake and establishes the connection
// immediately with the given profile and RTT estimate. Both sides of a
// simulated flow use this when the experiment pre-agrees the profile;
// rtt may be 0 if unknown.
func (c *Conn) StartDirect(now time.Duration, profile core.Profile, rtt time.Duration) {
	c.profile = profile.Normalize()
	c.buildMachines(now)
	c.state = StateEstablished
	if c.isSender() {
		c.rc.Start(now)
		if rtt > 0 {
			c.rc.SeedRTT(now, rtt)
		}
		c.nextSendAt = now
		c.started = true
	}
}

func (c *Conn) isSender() bool { return c.cfg.Initiator }

// buildMachines instantiates the negotiated micro-protocol composition.
// This function *is* the paper's protocol reconfigurability: every
// combination of the three roles is assembled from the same parts.
func (c *Conn) buildMachines(now time.Duration) {
	p := c.profile
	c.multi = p.MaxStreams >= 2
	if c.isSender() {
		// Congestion-control role: the negotiated controller behind the
		// transport-agnostic core.RateController contract. Every
		// controller hears each first transmission and each ack vector;
		// BBR is event-driven and diffs the vectors against its own send
		// ring, QTPlight's TFRC estimates loss from them, classic TFRC
		// ignores them.
		if p.Congestion == packet.CongestionBBR {
			c.rc = bbr.New(bbr.Config{MSS: p.MSS})
		} else {
			cfg := tfrc.SenderConfig{SegmentSize: p.MSS}
			if p.Feedback == packet.FeedbackSenderLoss {
				cfg.Estimator = tfrc.NewSenderEstimator(tfrc.EstimatorConfig{
					SegmentSize: p.MSS,
					WALIDepth:   p.WALIDepth,
				})
			}
			c.tfrcSnd = tfrc.NewSender(cfg)
			if p.TargetRate > 0 {
				c.rc = gtfrc.New(c.tfrcSnd, p.TargetRate)
			} else {
				c.rc = c.tfrcSnd
			}
		}
		// Reliability lives per stream: each owns a scoreboard. Stream 0's
		// mode follows from the profile.
		s0 := c.sendStreams[0]
		s0.mode, s0.deadline = c.stream0Mode()
		s0.buf.Deadline = s0.deadline
		s0.unreliable = p.Reliability == packet.ReliabilityNone
		if c.multi {
			// Prefixed, stream 0 counts in its own sequence space like
			// every stream; unprefixed it keeps the connection's.
			s0.nextSeq = c.cfg.streamStartSeq
		}
		return
	}
	// Receiving side: streams are opened by the first data frame that
	// belongs to them (see onData).
	if p.Feedback == packet.FeedbackReceiverLoss {
		c.tfrcRecv = tfrc.NewReceiver(tfrc.ReceiverConfig{
			SegmentSize: p.MSS,
			WALIDepth:   p.WALIDepth,
		})
	}
}

// Profile returns the (proposed or agreed) composition.
func (c *Conn) Profile() core.Profile { return c.profile }

// State returns the lifecycle state.
func (c *Conn) State() State { return c.state }

// Stats returns a snapshot of the endpoint counters.
func (c *Conn) Stats() Stats { return c.stats }

// RTT returns the sender's smoothed RTT (0 on the receiver side).
func (c *Conn) RTT() time.Duration {
	if c.rc == nil {
		return 0
	}
	return c.rc.RTT()
}

// Rate returns the allowed sending rate in bytes/s (0 on the receiver).
func (c *Conn) Rate() float64 {
	if c.rc == nil {
		return 0
	}
	return c.rc.PacingRate()
}

// BBR returns the connection's BBR controller for telemetry, nil when
// the negotiated congestion control is the TFRC family (or this is the
// receiving side).
func (c *Conn) BBR() *bbr.Controller {
	b, _ := c.rc.(*bbr.Controller)
	return b
}

// LossRate returns the current loss-event-rate estimate in use: the
// sender-side estimate under QTPlight, the last received report
// otherwise; 0 on the receiving side of classic flows.
func (c *Conn) LossRate() float64 {
	if b := c.BBR(); b != nil {
		return b.LossRate()
	}
	if e := c.estimator(); e != nil {
		return e.P()
	}
	switch {
	case c.tfrcSnd != nil:
		return c.tfrcSnd.P()
	case c.tfrcRecv != nil:
		return c.tfrcRecv.P()
	}
	return 0
}

// Write queues application data on stream 0, returning how many bytes
// were accepted (bounded by the backlog cap).
func (c *Conn) Write(p []byte) int { return c.WriteStream(0, p) }

// BacklogLen returns the bytes queued but not yet transmitted, summed
// across streams.
func (c *Conn) BacklogLen() int {
	n := 0
	for _, s := range c.sendStreams {
		n += s.buf.Queued()
	}
	return n
}

// CloseSend marks the end of stream 0: its final segment carries FIN.
// The connection tears down once every stream is closed and resolved.
func (c *Conn) CloseSend() {
	_ = c.CloseStream(0) // only a receiver has no stream 0 to close
}

// estimator returns QTPlight's sender-side loss estimator: nil on the
// receiving side, under BBR, and when the receiver estimates loss.
func (c *Conn) estimator() *tfrc.SenderEstimator {
	if c.tfrcSnd == nil {
		return nil
	}
	return c.tfrcSnd.Estimator()
}

// EstimatorOps returns the QTPlight sender estimator's operation count
// (0 when sender-side estimation is not in use). E4 metric.
func (c *Conn) EstimatorOps() int {
	if e := c.estimator(); e != nil {
		return e.Ops
	}
	return 0
}

// EstimatorStateBytes returns the sender estimator's memory footprint.
func (c *Conn) EstimatorStateBytes() int {
	if e := c.estimator(); e != nil {
		return e.StateBytes()
	}
	return 0
}

// TFRCReceiverOps returns the classic receiver's TFRC operation count
// (loss detection + WALI), 0 when not in use. E4 metric.
func (c *Conn) TFRCReceiverOps() int {
	if c.tfrcRecv == nil {
		return 0
	}
	return c.tfrcRecv.Ops + c.tfrcRecv.WALIOps()
}

// TFRCReceiverStateBytes returns the classic receiver's TFRC state size.
func (c *Conn) TFRCReceiverStateBytes() int {
	if c.tfrcRecv == nil {
		return 0
	}
	return c.tfrcRecv.StateBytes()
}

// nowUS converts an absolute time to the 32-bit microsecond wire clock.
func nowUS(now time.Duration) uint32 {
	return uint32(now / time.Microsecond)
}

// rttSample recovers an RTT measurement from an echoed timestamp and the
// peer's reported holding delay, using wrap-safe 32-bit arithmetic.
func rttSample(now time.Duration, tsEcho, elapsedUS uint32) time.Duration {
	delta := nowUS(now) - tsEcho - elapsedUS
	// Reject absurd samples (> 1 hour ≈ wrap artefacts, or negative
	// turned huge by wrap).
	if delta > 3_600_000_000 {
		return 0
	}
	return time.Duration(delta) * time.Microsecond
}
