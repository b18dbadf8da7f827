package qtpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qcrypto"
	"repro/internal/qtp"
)

// maxDatagram bounds receive buffers; QTP frames are MSS + header.
const maxDatagram = bufpool.Size

// closeGrace is how long a connection closed by the application while
// its protocol exchange is still in flight stays routable — a TIME_WAIT
// analogue. During the grace the state machine still acknowledges
// retransmissions and answers the peer's Close, but delivers nothing to
// the (departed) application; the entry is reclaimed as soon as the
// protocol close completes, the grace expiring only if the peer went
// silent.
const closeGrace = 3 * time.Second

// Defaults for the two queue depths a config may leave unset, and the
// values that are deliberately not configurable at all.
const (
	// defaultAcceptBacklog is the accept-queue depth when
	// EndpointConfig.AcceptBacklog is unset.
	defaultAcceptBacklog = 64
	// defaultReadQueue is the per-connection delivery queue depth when
	// EndpointConfig.ReadQueue is unset.
	defaultReadQueue = 64
	// minAcceptBurst floors the accept token bucket's depth, which is
	// otherwise one second's worth of AcceptRate.
	minAcceptBurst = 8
	// socketBufferBytes is the receive and send buffering asked of the
	// kernel (best-effort: it clamps to net.core.{r,w}mem_max). It
	// matters once segment offload is in play — one GRO super-datagram
	// can be 64 KiB, a third of the usual 208 KiB default, so an unlucky
	// burst tail-drops whole trains where the per-frame path would have
	// shed a few packets. With SO_TXTIME pacing active the request
	// halves: fq-paced trains arrive spread out instead of as
	// micro-bursts and need less burst absorption.
	socketBufferBytes      = 2 << 20
	socketBufferBytesPaced = 1 << 20
)

// zeroConfig is what an EndpointConfig's zero DataPath and
// DisableEncryption resolve to. It is the zero value — best rung,
// sealed — in every build; only this package's TestMain writes it, so
// the whole suite can be re-run on a lower rung or in cleartext
// (-args -datapath=…, -cleartext) without anything a deployed process
// could set.
var zeroConfig struct {
	dataPath  DataPath
	cleartext bool
}

// ErrEndpointClosed is returned by calls on a closed endpoint.
var ErrEndpointClosed = errors.New("qtpnet: endpoint closed")

// EndpointConfig configures a multiplexed UDP endpoint.
type EndpointConfig struct {
	// AcceptInbound makes the endpoint create responder connections for
	// inbound Connect frames (server role). When false, unsolicited
	// Connects are dropped and the endpoint only dials out.
	AcceptInbound bool
	// Constraints bound what inbound connections are granted.
	Constraints core.Constraints
	// AcceptBacklog caps connections awaiting Accept (default 64).
	// Beyond it, new Connects are abandoned; the peer's handshake
	// retransmission gives Accept time to catch up.
	AcceptBacklog int
	// ReadQueue caps delivered chunks buffered per connection awaiting
	// the application's Read (default 64, i.e. 128 KiB of 2 KiB chunks).
	// Beyond it the oldest chunk is dropped so one stalled reader cannot
	// wedge the endpoint; raise it for bursty high-rate receivers.
	ReadQueue int
	// DataPath caps how high the endpoint climbs the data-path ladder
	// (docs/DATAPATH.md); the zero value takes the best rung the socket
	// probes in. The endpoint behaves identically on every rung, and
	// sealed datagrams (docs/WIRE.md) travel every rung unchanged —
	// encryption is orthogonal.
	DataPath DataPath
	// DisableUring is ignored: the data path has no io_uring rung.
	//
	// Deprecated: kept only because the repo benchmark, which later
	// changes may not edit, sets it (benchmark/README.md, "Entry points").
	DisableUring bool
	// RequireToken makes the endpoint challenge every token-less Connect
	// with a stateless Retry carrying an HMAC source-address token,
	// allocating no connection state until a Connect echoes a valid
	// token. Off by default; even then the endpoint starts challenging
	// on its own once the accept queue is half full (spending one HMAC
	// per datagram beats spending a conn struct per spoofed source).
	RequireToken bool
	// AcceptRate, when positive, caps new responder creation at this
	// many connections per second (per shard on a sharded endpoint) via
	// a token bucket one second deep (at least 8). Connects beyond the
	// budget are shed statelessly with a Retry carrying a Retry-after
	// hint rather than silently dropped, so legitimate dialers back off
	// and try again.
	AcceptRate float64
	// DisableEncryption turns off the always-on datagram encryption:
	// handshakes carry no key shares and every frame travels in
	// plaintext, as before PR 8. Interop/debug escape hatch only — both
	// ends must agree (an encrypted endpoint refuses plaintext peers and
	// vice versa).
	DisableEncryption bool
}

// resolved fills in what the config left at zero.
func (cfg EndpointConfig) resolved() EndpointConfig {
	if cfg.AcceptBacklog <= 0 {
		cfg.AcceptBacklog = defaultAcceptBacklog
	}
	if cfg.ReadQueue <= 0 {
		cfg.ReadQueue = defaultReadQueue
	}
	if cfg.DataPath == DataPathAuto {
		cfg.DataPath = zeroConfig.dataPath
	}
	cfg.DisableEncryption = cfg.DisableEncryption || zeroConfig.cleartext
	return cfg
}

// EndpointStats is a snapshot of an endpoint's datagram-path counters.
// Batch counters count syscalls: DatagramsIn/RecvBatches is the average
// number of datagrams moved per receive syscall, the number batching
// exists to raise.
type EndpointStats struct {
	DatagramsIn  uint64 // datagrams read from the socket
	DatagramsOut uint64 // datagrams handed to the kernel
	RecvBatches  uint64 // read syscalls
	SendBatches  uint64 // write syscalls
	MaxRecvBatch int    // largest single read batch
	MaxSendBatch int    // largest single write batch
	NoRoute      uint64 // datagrams that matched no connection
	RecvDrops    uint64 // delivered chunks dropped on slow readers
	SendErrs     uint64 // transient send errors (datagram dropped)
	SendDrops    uint64 // datagrams abandoned by send errors

	// Segment offload (always zero where UDP_SEGMENT/UDP_GRO are
	// unavailable or disabled): GsoTrains counts super-datagrams the
	// send scheduler coalesced, GsoSegs the frames that traveled
	// inside them (GsoSegs/GsoTrains is the mean train length),
	// GroMerged the inbound datagrams that arrived inside GRO-merged
	// reads, and GsoFallbacks the trains the kernel refused at send
	// time — each re-sent segment-by-segment, after which offload
	// stays off for the socket's lifetime.
	GsoTrains    uint64
	GsoSegs      uint64
	GroMerged    uint64
	GsoFallbacks uint64

	// Wakeups counts the times the receive path blocked into the
	// kernel for more data — the structural cost batching exists to
	// amortize. Every read syscall is a wakeup, so it always equals
	// RecvBatches. TxTimeSends counts datagrams sent with an SO_TXTIME
	// release stamp (zero without TXTIME pacing).
	Wakeups     uint64
	TxTimeSends uint64

	// Cross-shard traffic (always zero on unsharded endpoints): frames
	// the kernel hashed to a shard other than the one their connection
	// ID names. Fwd counts at the receiving (wrong) shard, Recv at the
	// owning shard after the handoff ring, Drops when the ring was full
	// or the CID named a nonexistent shard.
	CrossShardFwd   uint64
	CrossShardRecv  uint64
	CrossShardDrops uint64

	// Handshake hardening (zero unless the endpoint accepts inbound).
	// RetrySent counts stateless Retry frames sent (address-validation
	// challenges and load-shed hints); TokenInvalid counts Connect
	// tokens that failed validation (stale, rotated out, or forged);
	// HandshakeDropped counts Connects shed before allocation by
	// accept-queue saturation or the AcceptRate bucket; Amplification-
	// Capped counts frames withheld (or Retries suppressed) by the 3x
	// pre-validation byte cap; AcceptOverflow counts responders
	// abandoned post-allocation because the accept backlog filled
	// between admission and queueing.
	RetrySent           uint64
	TokenInvalid        uint64
	HandshakeDropped    uint64
	AmplificationCapped uint64
	AcceptOverflow      uint64

	// Datagram crypto (zero with DisableEncryption). SealFailures
	// counts outbound frames dropped because sealing failed; the key
	// update keeps the sealing sequence from running out, so any
	// nonzero value is a bug. OpenFailures counts inbound sealed
	// datagrams that failed authentication/replay/epoch checks plus
	// plaintext data-plane frames refused on encrypted connections.
	// TicketsIssued counts session tickets minted into Accepts;
	// ZeroRTTAccepted/Rejected count inbound resumption attempts by
	// outcome (a rejection still completes the handshake at 1-RTT — only
	// the early data is refused).
	SealFailures    uint64
	OpenFailures    uint64
	TicketsIssued   uint64
	ZeroRTTAccepted uint64
	ZeroRTTRejected uint64
}

// AvgRecvBatch returns mean datagrams per receive syscall.
func (s EndpointStats) AvgRecvBatch() float64 { return ratio(s.DatagramsIn, s.RecvBatches) }

// AvgSendBatch returns mean datagrams per send syscall.
func (s EndpointStats) AvgSendBatch() float64 { return ratio(s.DatagramsOut, s.SendBatches) }

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func (s EndpointStats) String() string {
	str := fmt.Sprintf(
		"in %d dgrams/%d syscalls (avg batch %.2f, max %d) out %d dgrams/%d syscalls (avg batch %.2f, max %d) noroute %d rxdrop %d senderr %d sendrop %d",
		s.DatagramsIn, s.RecvBatches, s.AvgRecvBatch(), s.MaxRecvBatch,
		s.DatagramsOut, s.SendBatches, s.AvgSendBatch(), s.MaxSendBatch,
		s.NoRoute, s.RecvDrops, s.SendErrs, s.SendDrops)
	if s.CrossShardFwd > 0 || s.CrossShardRecv > 0 || s.CrossShardDrops > 0 {
		str += fmt.Sprintf(" xshard fwd %d recv %d drop %d",
			s.CrossShardFwd, s.CrossShardRecv, s.CrossShardDrops)
	}
	if s.GsoTrains > 0 || s.GroMerged > 0 || s.GsoFallbacks > 0 {
		str += fmt.Sprintf(" gso trains %d segs %d fallback %d gro merged %d",
			s.GsoTrains, s.GsoSegs, s.GsoFallbacks, s.GroMerged)
	}
	str += fmt.Sprintf(" wakeups %d", s.Wakeups)
	if s.TxTimeSends > 0 {
		str += fmt.Sprintf(" txtime sends %d", s.TxTimeSends)
	}
	if s.RetrySent > 0 || s.TokenInvalid > 0 || s.HandshakeDropped > 0 ||
		s.AmplificationCapped > 0 || s.AcceptOverflow > 0 {
		str += fmt.Sprintf(" hs retry %d badtoken %d shed %d ampcap %d acceptovf %d",
			s.RetrySent, s.TokenInvalid, s.HandshakeDropped,
			s.AmplificationCapped, s.AcceptOverflow)
	}
	if s.SealFailures > 0 || s.OpenFailures > 0 || s.TicketsIssued > 0 ||
		s.ZeroRTTAccepted > 0 || s.ZeroRTTRejected > 0 {
		str += fmt.Sprintf(" crypto sealfail %d openfail %d tickets %d 0rtt acc %d rej %d",
			s.SealFailures, s.OpenFailures, s.TicketsIssued,
			s.ZeroRTTAccepted, s.ZeroRTTRejected)
	}
	return str
}

// add folds another endpoint's counters into s; max-batch fields take
// the maximum. ShardedEndpoint aggregates per-shard stats with it.
func (s EndpointStats) add(o EndpointStats) EndpointStats {
	s.DatagramsIn += o.DatagramsIn
	s.DatagramsOut += o.DatagramsOut
	s.RecvBatches += o.RecvBatches
	s.SendBatches += o.SendBatches
	if o.MaxRecvBatch > s.MaxRecvBatch {
		s.MaxRecvBatch = o.MaxRecvBatch
	}
	if o.MaxSendBatch > s.MaxSendBatch {
		s.MaxSendBatch = o.MaxSendBatch
	}
	s.NoRoute += o.NoRoute
	s.RecvDrops += o.RecvDrops
	s.SendErrs += o.SendErrs
	s.SendDrops += o.SendDrops
	s.GsoTrains += o.GsoTrains
	s.GsoSegs += o.GsoSegs
	s.GroMerged += o.GroMerged
	s.GsoFallbacks += o.GsoFallbacks
	s.Wakeups += o.Wakeups
	s.TxTimeSends += o.TxTimeSends
	s.CrossShardFwd += o.CrossShardFwd
	s.CrossShardRecv += o.CrossShardRecv
	s.CrossShardDrops += o.CrossShardDrops
	s.RetrySent += o.RetrySent
	s.TokenInvalid += o.TokenInvalid
	s.HandshakeDropped += o.HandshakeDropped
	s.AmplificationCapped += o.AmplificationCapped
	s.AcceptOverflow += o.AcceptOverflow
	s.SealFailures += o.SealFailures
	s.OpenFailures += o.OpenFailures
	s.TicketsIssued += o.TicketsIssued
	s.ZeroRTTAccepted += o.ZeroRTTAccepted
	s.ZeroRTTRejected += o.ZeroRTTRejected
	return s
}

// peerKey routes handshake frames, which arrive before the peer can
// know the local connection ID our demux table is keyed on: a Connect
// is identified by where it came from plus the initiator's own ID, so
// many initiators behind one remote socket stay distinct.
type peerKey struct {
	addr netip.AddrPort
	id   uint32
}

// Endpoint runs many QTP connections over one UDP socket. Inbound
// datagrams arrive in batches — one recvmmsg syscall fills a ring of
// pooled buffers, and the whole batch is demultiplexed under a single
// table-lock acquisition. Outbound frames from every connection funnel
// through one send scheduler that flushes them with sendmmsg, so
// connections sharing the socket also share syscalls. Protocol timers
// across all connections are driven by a single shared deadline heap.
// On platforms without the batch syscalls both paths degrade to one
// datagram per call with identical semantics.
//
// Frames are sealed into AEAD envelopes just before they reach the
// send scheduler and opened just after demux, so every batching layer
// (sendmmsg, GSO trains) handles sealed datagrams exactly as it handled
// plaintext; see docs/WIRE.md for the envelope bytes and
// EndpointConfig.DisableEncryption for the escape hatch.
type Endpoint struct {
	pc    *net.UDPConn
	bio   batchIO
	caps  *pathCaps
	tx    *sendScheduler
	epoch time.Time
	cfg   EndpointConfig
	shard shardEnv

	// minter mints/validates source-address tokens (nil unless the
	// endpoint accepts inbound). On a sharded endpoint every shard
	// shares one minter, so a token minted by shard A validates on B.
	minter *packet.TokenMinter
	// tickets mints/redeems 0-RTT session tickets (nil unless the
	// endpoint accepts encrypted inbound). Shared across a shard group
	// like the minter: the reuseport hash may land a resuming client on
	// a different shard than the one that minted its ticket.
	tickets *qcrypto.TicketStore

	mu         sync.Mutex
	byID       map[uint32]*Conn  // local conn ID -> conn (data-plane route)
	byPeer     map[peerKey]*Conn // (peer addr, peer conn ID) -> conn (handshake route)
	timers     connHeap
	nextID     uint32
	sleepUntil time.Duration // scheduler's current sleep deadline
	closed     bool
	readErr    error
	sendErr    error
	// Accept token bucket (guarded by mu): hsTokens is the current
	// balance, refilled at cfg.AcceptRate up to hsBurst.
	hsTokens float64
	hsBurst  float64
	hsLast   time.Duration
	// resume caches the latest resumption state harvested per peer
	// (guarded by mu): the next Dial to that address pops it and sends
	// 0-RTT data in its first flight. Single-use by construction —
	// Dial deletes the entry it takes.
	resume map[netip.AddrPort]*qcrypto.Resumption

	// Receive-side counters (single writer: the read loop).
	datagramsIn  atomic.Uint64
	recvBatches  atomic.Uint64
	maxRecvBatch atomic.Uint64
	noRoute      atomic.Uint64
	recvDrops    atomic.Uint64
	groMerged    atomic.Uint64

	// Cross-shard counters (see EndpointStats).
	crossFwd  atomic.Uint64
	crossRecv atomic.Uint64
	crossDrop atomic.Uint64

	// Handshake-hardening counters (see EndpointStats).
	retrySent      atomic.Uint64
	tokenInvalid   atomic.Uint64
	hsDropped      atomic.Uint64
	ampCapped      atomic.Uint64
	acceptOverflow atomic.Uint64

	// Datagram-crypto counters (see EndpointStats).
	sealFails       atomic.Uint64
	openFails       atomic.Uint64
	ticketsIssued   atomic.Uint64
	zeroRTTAccepted atomic.Uint64
	zeroRTTRejected atomic.Uint64

	acceptCh  chan *Conn
	done      chan struct{}
	wake      chan struct{}
	closeOnce sync.Once
}

// shardEnv is what a member of a reuseport shard group knows about the
// group: its own index (encoded in every connection ID it mints), the
// forward hook that hands a foreign-shard datagram to its owner's
// handoff ring, and the group-shared accept queue. The zero value means
// the endpoint is unsharded and behaves exactly as before.
type shardEnv struct {
	enabled bool
	idx     uint32
	// forward pushes a datagram whose CID names another shard onto that
	// shard's handoff ring, reporting false if it was dropped (ring full
	// or no such shard). It must not block and must copy dgram before
	// returning, as the caller reuses the memory.
	forward func(shard uint32, from netip.AddrPort, dgram []byte) bool
	// acceptCh, when non-nil, replaces the endpoint's private accept
	// queue so Accept on the shard group sees every shard's handshakes.
	acceptCh chan *Conn
	// minter, when non-nil, is the group-shared token minter: the
	// kernel's reuseport hash can move a client between shards across
	// its Retry round-trip, so tokens must validate group-wide.
	minter *packet.TokenMinter
	// tickets, when non-nil, is the group-shared session-ticket store,
	// shared for the same reason as the minter.
	tickets *qcrypto.TicketStore
}

// NewEndpoint opens a UDP socket on addr and starts the endpoint's
// read, timer and send-flush loops. Use addr ":0" for an ephemeral
// dial-side port.
func NewEndpoint(addr string, cfg EndpointConfig) (*Endpoint, error) {
	pc, err := listenUDP(addr)
	if err != nil {
		return nil, err
	}
	return newEndpointOn(pc, cfg, shardEnv{}), nil
}

// listenUDP binds a plain (non-reuseport) UDP socket on addr.
func listenUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("qtpnet: resolve %s: %w", addr, err)
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("qtpnet: listen %s: %w", addr, err)
	}
	return pc, nil
}

// newEndpointOn builds an endpoint around an already-bound socket; the
// sharded constructor uses it to stand one endpoint per reuseport
// socket.
func newEndpointOn(pc *net.UDPConn, cfg EndpointConfig, sh shardEnv) *Endpoint {
	cfg = cfg.resolved()
	// The data path is built before the socket buffers are sized: with
	// SO_TXTIME pacing active, flushes leave the socket as fq-scheduled
	// release instants instead of micro-bursts, so the burst-absorption
	// floor halves. Best-effort: an endpoint still works (just drops
	// more under burst) if the kernel refuses the request outright.
	bio, caps := newBatchIO(pc, rxBatch, cfg.DataPath)
	bufBytes := socketBufferBytes
	if caps.txClock != nil {
		bufBytes = socketBufferBytesPaced
	}
	_ = pc.SetReadBuffer(bufBytes)
	_ = pc.SetWriteBuffer(bufBytes)
	e := &Endpoint{
		pc:       pc,
		bio:      bio,
		caps:     caps,
		epoch:    time.Now(),
		cfg:      cfg,
		shard:    sh,
		byID:     make(map[uint32]*Conn),
		byPeer:   make(map[peerKey]*Conn),
		nextID:   1,
		acceptCh: sh.acceptCh,
		done:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
		resume:   make(map[netip.AddrPort]*qcrypto.Resumption),
	}
	if e.acceptCh == nil {
		e.acceptCh = make(chan *Conn, cfg.AcceptBacklog)
	}
	if cfg.AcceptInbound {
		e.minter = sh.minter
		if e.minter == nil {
			e.minter = packet.NewTokenMinter(0)
		}
		if !cfg.DisableEncryption {
			e.tickets = sh.tickets
			if e.tickets == nil {
				e.tickets = qcrypto.NewTicketStore(0)
			}
		}
		e.hsBurst = math.Max(cfg.AcceptRate, minAcceptBurst)
		e.hsTokens = e.hsBurst
	}
	e.tx = newSendScheduler(bio, caps, txBatch, e.onSendFatal)
	go e.readLoop()
	go e.timerLoop()
	return e
}

// Addr returns the endpoint's bound UDP address.
func (e *Endpoint) Addr() net.Addr { return e.pc.LocalAddr() }

// ConnCount returns the number of live connections on the endpoint.
func (e *Endpoint) ConnCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.byID)
}

// Stats snapshots the endpoint's datagram-path counters.
func (e *Endpoint) Stats() EndpointStats {
	st := EndpointStats{
		DatagramsIn:     e.datagramsIn.Load(),
		DatagramsOut:    e.tx.datagramsOut.Load(),
		RecvBatches:     e.recvBatches.Load(),
		SendBatches:     e.tx.batches.Load(),
		MaxRecvBatch:    int(e.maxRecvBatch.Load()),
		MaxSendBatch:    int(e.tx.maxSeen.Load()),
		NoRoute:         e.noRoute.Load(),
		RecvDrops:       e.recvDrops.Load(),
		SendErrs:        e.tx.errTransient.Load(),
		SendDrops:       e.tx.drops.Load(),
		GsoTrains:       e.tx.gsoTrains.Load(),
		GsoSegs:         e.tx.gsoSegs.Load(),
		GroMerged:       e.groMerged.Load(),
		CrossShardFwd:   e.crossFwd.Load(),
		CrossShardRecv:  e.crossRecv.Load(),
		CrossShardDrops: e.crossDrop.Load(),

		RetrySent:           e.retrySent.Load(),
		TokenInvalid:        e.tokenInvalid.Load(),
		HandshakeDropped:    e.hsDropped.Load(),
		AmplificationCapped: e.ampCapped.Load(),
		AcceptOverflow:      e.acceptOverflow.Load(),

		SealFailures:    e.sealFails.Load(),
		OpenFailures:    e.openFails.Load(),
		TicketsIssued:   e.ticketsIssued.Load(),
		ZeroRTTAccepted: e.zeroRTTAccepted.Load(),
		ZeroRTTRejected: e.zeroRTTRejected.Load(),

		GsoFallbacks: e.caps.gsoFallbacks.Load(),
		TxTimeSends:  e.caps.txTimeSends.Load(),
	}
	st.Wakeups = st.RecvBatches
	return st
}

// Capabilities is the data path an endpoint's socket probed in at bind,
// under its DataPath ceiling; all false on the portable rung.
type Capabilities struct {
	Batch  bool // datagrams move with recvmmsg/sendmmsg
	GSO    bool // sends coalesce into UDP_SEGMENT trains; clears if the kernel refuses one
	GRO    bool // UDP_GRO is on: inbound bursts may arrive kernel-merged
	TxTime bool // sends may carry SO_TXTIME release stamps (spacing needs an fq qdisc)
}

// String names the rung of the data-path ladder the capabilities
// amount to.
func (c Capabilities) String() string {
	switch {
	case c.GSO:
		return "recvmmsg/sendmmsg + GSO/GRO"
	case c.Batch:
		return "recvmmsg/sendmmsg"
	}
	return "single-datagram fallback"
}

// Capabilities reports what the endpoint's data path can do right now.
func (e *Endpoint) Capabilities() Capabilities {
	return Capabilities{
		Batch:  e.caps.batch,
		GSO:    e.caps.gsoMaxSegs.Load() > 1,
		GRO:    e.caps.gro,
		TxTime: e.caps.txClock != nil,
	}
}

// BatchEnabled, GSOEnabled, GROEnabled and TxTimeEnabled each report
// one field of Capabilities.
func (e *Endpoint) BatchEnabled() bool  { return e.Capabilities().Batch }
func (e *Endpoint) GSOEnabled() bool    { return e.Capabilities().GSO }
func (e *Endpoint) GROEnabled() bool    { return e.Capabilities().GRO }
func (e *Endpoint) TxTimeEnabled() bool { return e.Capabilities().TxTime }

// UringEnabled and UringDeferred always report false: the data path has
// no io_uring rung.
//
// Deprecated: kept only because the repo benchmark, which later
// changes may not edit, calls them (benchmark/README.md, "Entry points").
func (e *Endpoint) UringEnabled() bool  { return false }
func (e *Endpoint) UringDeferred() bool { return false }

// SocketBufSizes reports the effective SO_RCVBUF/SO_SNDBUF values as
// the kernel holds them, so callers (qtpd -v) can verify the
// configured request actually took. Zero where unavailable.
func (e *Endpoint) SocketBufSizes() (rcv, snd int) {
	return socketBufSizes(e.pc)
}

// Err returns the persistent socket error that shut the endpoint down,
// if any: connections torn down by a dead socket find the cause here.
func (e *Endpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.readErr != nil {
		return e.readErr
	}
	return e.sendErr
}

// now maps wall time to the endpoint's monotonic protocol clock, shared
// by every connection it serves.
func (e *Endpoint) now() time.Duration { return time.Since(e.epoch) }

// Dial opens a new initiator connection to addr over the shared socket,
// proposing the profile, and blocks until the handshake completes or
// the timeout elapses. Many concurrent Dials may share one endpoint.
//
// On an encrypted endpoint that holds a cached session ticket for addr
// (left by a previous connection to the same peer), Dial resumes at
// 0-RTT: it returns as soon as the first flight is sent, and Write
// data rides that flight under the resumed keys — one RTT earlier than
// a fresh handshake. If the server rejects the ticket the handshake
// still completes normally; only the early data is refused (and
// retransmitted under the 1-RTT keys).
func (e *Endpoint) Dial(addr string, profile core.Profile, timeout time.Duration) (*Conn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("qtpnet: resolve %s: %w", addr, err)
	}
	peer := normalize(ua.AddrPort())

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEndpointClosed
	}
	id := e.allocIDLocked()
	c := newConn(e, peer, id)
	c.initiator = true
	// Dialing out proves nothing needs proving: the amplification cap
	// exists for responders answering unvalidated sources.
	c.validated.Store(true)
	// Pop any cached resumption state for this peer: tickets are
	// single-use, so the entry leaves the cache whether or not the
	// server ends up accepting the 0-RTT data.
	resume := e.resume[peer]
	delete(e.resume, peer)
	// The initiator stamps its own ID until the Accept TLV delivers the
	// responder's; a symmetric legacy responder just keeps echoing it.
	c.inner = qtp.NewConn(qtp.Config{
		Initiator: true,
		Profile:   profile,
		ConnID:    id,
		Encrypt:   !e.cfg.DisableEncryption,
		Resume:    resume,
	})
	e.byID[id] = c
	e.mu.Unlock()

	c.mu.Lock()
	c.inner.Start(e.now())
	earlyArmed := c.inner.CryptoInfo().EarlyOffered
	failed := c.inner.State() == qtp.StateClosed
	c.mu.Unlock()
	if failed {
		c.teardown()
		return nil, errors.New("qtpnet: handshake start failed")
	}
	e.serviceFlush(c)

	if earlyArmed {
		// 0-RTT: the connection is writable right now — application data
		// rides the first flight under the resumed keys. established still
		// closes when the Accept lands, for callers that want to observe it.
		return c, nil
	}

	select {
	case <-c.established:
		return c, nil
	case <-c.closedCh:
		return nil, errors.New("qtpnet: connection closed during handshake")
	case <-e.done:
		c.Close()
		return nil, ErrEndpointClosed
	case <-time.After(timeout):
		c.Close()
		return nil, errors.New("qtpnet: handshake timeout")
	}
}

// Accept blocks until an inbound connection completes its side of the
// handshake (server role; requires AcceptInbound).
func (e *Endpoint) Accept() (*Conn, error) {
	select {
	case c := <-e.acceptCh:
		return c, nil
	default:
	}
	select {
	case c := <-e.acceptCh:
		return c, nil
	case <-e.done:
		return nil, ErrEndpointClosed
	}
}

// Close tears down every connection and releases the socket.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		conns := make([]*Conn, 0, len(e.byID))
		for _, c := range e.byID {
			conns = append(conns, c)
		}
		e.mu.Unlock()
		close(e.done)
		e.tx.stop()
		for _, c := range conns {
			c.teardown()
		}
		e.pc.Close()
	})
	return nil
}

// onSendFatal is the send scheduler's persistent-failure callback: it
// records the cause and tears the endpoint down, so every connection
// sees Done close instead of stalling against a dead socket.
func (e *Endpoint) onSendFatal(err error) {
	select {
	case <-e.done:
		return // shutdown already in progress; expected
	default:
	}
	e.mu.Lock()
	if e.sendErr == nil {
		e.sendErr = err
	}
	e.mu.Unlock()
	go e.Close()
}

// readLoop fills a ring of pooled buffers from the socket — one
// recvmmsg per wakeup where the platform allows — and feeds each batch
// to the demultiplexer. With UDP_GRO enabled, a single ring buffer may
// hold a kernel-merged super-datagram; expandGRO slices it into
// per-packet views (no copy — the views alias the ring) before the
// demux sees it, so the delivery logic is identical whether the kernel
// merged or not. The ring buffers are never released on the steady
// path: Deliver does not retain frame memory, so the same ring serves
// every batch and per-datagram pool traffic is zero.
func (e *Endpoint) readLoop() {
	bufs := bufpool.GetBatch(rxBatch)
	defer bufpool.PutBatch(bufs)
	ms := make([]ioMsg, rxBatch)
	for i := range ms {
		ms[i].buf = bufs[i]
	}
	var sc rxScratch
	var views []ioMsg
	for {
		n, err := e.bio.readBatch(ms)
		if err != nil {
			select {
			case <-e.done:
			default:
				// A dead socket outside shutdown leaves the endpoint
				// deaf; close it so Accept returns and every connection
				// is torn down rather than stalling silently.
				e.mu.Lock()
				if e.readErr == nil {
					e.readErr = err
				}
				e.mu.Unlock()
				e.Close()
			}
			return
		}
		var merged uint64
		views, merged = expandGRO(ms[:n], views[:0])
		e.datagramsIn.Add(uint64(len(views)))
		e.groMerged.Add(merged)
		e.recvBatches.Add(1)
		if uint64(len(views)) > e.maxRecvBatch.Load() {
			e.maxRecvBatch.Store(uint64(len(views)))
		}
		e.deliverBatch(views, &sc)
	}
}

// expandGRO appends one per-wire-datagram view of each received
// message to out: messages that arrived merged by UDP_GRO (segSize
// set below the read length) are sliced at the kernel-reported
// segment size — every slice a full frame, the last possibly shorter
// — while ordinary reads pass through unchanged. The views alias the
// callers' buffers; nothing is copied. The second result counts the
// datagrams recovered from merged reads (the GroMerged stat).
func expandGRO(ms []ioMsg, out []ioMsg) ([]ioMsg, uint64) {
	var merged uint64
	for i := range ms {
		seg := ms[i].segSize
		if seg <= 0 || ms[i].n <= seg {
			out = append(out, ioMsg{buf: ms[i].buf[:ms[i].n], n: ms[i].n, addr: ms[i].addr})
			continue
		}
		for off := 0; off < ms[i].n; off += seg {
			end := off + seg
			if end > ms[i].n {
				end = ms[i].n
			}
			out = append(out, ioMsg{buf: ms[i].buf[off:end], n: end - off, addr: ms[i].addr})
			merged++
		}
	}
	return out, merged
}

// classify pulls the demux key out of a raw datagram: frame type and
// connection ID. ok=false rejects runts and foreign versions.
func classify(dgram []byte) (typ packet.Type, cid uint32, ok bool) {
	if len(dgram) < packet.HeaderLen || dgram[0]>>4 != packet.Version {
		return 0, 0, false
	}
	return packet.Type(dgram[0] & 0x0f), binary.BigEndian.Uint32(dgram[4:8]), true
}

// foreignShard reports whether a classified frame belongs to a
// different shard of this endpoint's reuseport group: the top bits of
// its connection ID name a shard other than this one. Handshake frames
// have no routable CID yet and are always claimed locally — as are
// epoch-0 sealed datagrams: a 0-RTT first flight travels under the
// client's proposed CID (the server's Accept hasn't arrived yet), which
// carries no shard prefix, and the kernel hashes it to the same shard
// as the Connect it rides with.
func (e *Endpoint) foreignShard(typ packet.Type, cid uint32, dgram []byte) (uint32, bool) {
	if !e.shard.enabled || typ == packet.TypeConnect {
		return 0, false
	}
	if typ == packet.TypeSealed && len(dgram) > 1 && dgram[1] == uint8(qcrypto.Epoch0RTT) {
		return 0, false
	}
	if sh := packet.CIDShard(cid); sh != e.shard.idx {
		return sh, true
	}
	return 0, false
}

// forwardFrame hands a foreign-shard datagram to its owning shard's
// handoff ring, reporting whether the handoff was accepted.
func (e *Endpoint) forwardFrame(sh uint32, from netip.AddrPort, dgram []byte) bool {
	if e.shard.forward != nil && e.shard.forward(sh, from, dgram) {
		e.crossFwd.Add(1)
		return true
	}
	e.crossDrop.Add(1)
	return false
}

// Deliver demultiplexes one datagram to its connection and services it.
// This is the endpoint's single-datagram receive entry point: tests and
// alternative drivers inject frames here, and the batch path is
// equivalent to calling it once per datagram. The datagram memory is
// not retained; the caller may reuse it as soon as Deliver returns. It
// reports whether the frame reached a connection and was accepted — or,
// on a sharded endpoint, was handed off to the shard its connection ID
// names (the handoff is asynchronous; the owning shard delivers it).
func (e *Endpoint) Deliver(from netip.AddrPort, dgram []byte) bool {
	typ, cid, ok := classify(dgram)
	if !ok {
		return false
	}
	if sh, foreign := e.foreignShard(typ, cid, dgram); foreign {
		return e.forwardFrame(sh, from, dgram)
	}
	return e.deliverClassified(from, dgram, typ, cid)
}

// deliverForwarded is the handoff ring's delivery entry on the owning
// shard. The frame was already shard-checked by the forwarder, so it is
// delivered locally — an unknown CID is a plain no-route here, never a
// second forward, which is what makes cross-shard delivery exactly-once.
func (e *Endpoint) deliverForwarded(from netip.AddrPort, dgram []byte) bool {
	typ, cid, ok := classify(dgram)
	if !ok {
		return false
	}
	e.crossRecv.Add(1)
	return e.deliverClassified(from, dgram, typ, cid)
}

// deliverClassified routes one already-classified datagram locally.
func (e *Endpoint) deliverClassified(from netip.AddrPort, dgram []byte, typ packet.Type, cid uint32) bool {
	e.mu.Lock()
	c, isNew, shed := e.resolveLocked(from, typ, cid, dgram)
	e.mu.Unlock()
	if shed {
		// The Connect was answered statelessly (Retry challenge or load
		// shed); push the queued frame out now.
		e.tx.flushPending()
		return false
	}
	if c == nil {
		e.noRoute.Add(1)
		return false
	}
	accountRx(c, typ, len(dgram))
	err := e.handleFrame(c, dgram)
	if isNew && !e.finishAccept(c, err) {
		// Refused before service ran, so no Accept frame went out: the
		// peer keeps retransmitting its Connect and a later attempt may
		// find room.
		return false
	}
	e.serviceFlush(c)
	return err == nil
}

// rxScratch is the read loop's reusable batch-demux state; keeping it
// across batches keeps the receive path allocation-free.
type rxScratch struct {
	keys    []frameKey
	conns   []*Conn
	fresh   []bool
	touched []*Conn
}

// frameKey is one datagram's classification within a batch. local is
// false for frames that never reach the local demux: runts, foreign
// versions, and foreign-shard frames. accounted marks frames some
// other path has fully charged — a foreign-shard forward (CrossShardFwd
// or CrossShardDrops) or a statelessly answered Connect (RetrySent /
// HandshakeDropped) — so they must not also count as no-route, keeping
// batch and single-datagram accounting identical.
type frameKey struct {
	typ       packet.Type
	cid       uint32
	local     bool
	accounted bool
}

// deliverBatch demultiplexes one receive batch. Classification and the
// foreign-shard check run without any lock — a frame the kernel hashed
// to the wrong shard goes straight to its owner's lock-free handoff
// ring — then the route for every local datagram is resolved under a
// single demux-lock acquisition (where the single-datagram path pays
// one per frame), frames are handled in arrival order, and each
// connection touched by the batch is serviced exactly once — so a burst
// of frames for one connection costs one transmit/deliver/reschedule
// pass instead of one per frame.
func (e *Endpoint) deliverBatch(ms []ioMsg, sc *rxScratch) {
	sc.keys = sc.keys[:0]
	sc.conns = sc.conns[:0]
	sc.fresh = sc.fresh[:0]
	anyLocal := false
	for i := range ms {
		typ, cid, ok := classify(ms[i].buf[:ms[i].n])
		k := frameKey{typ: typ, cid: cid, local: ok}
		if ok {
			if sh, foreign := e.foreignShard(typ, cid, ms[i].buf[:ms[i].n]); foreign {
				k.local, k.accounted = false, true
				e.forwardFrame(sh, ms[i].addr, ms[i].buf[:ms[i].n])
			}
		}
		anyLocal = anyLocal || k.local
		sc.keys = append(sc.keys, k)
	}

	shedAny := false
	if anyLocal {
		e.mu.Lock()
		for i := range ms {
			var c *Conn
			isNew := false
			if sc.keys[i].local {
				var shed bool
				c, isNew, shed = e.resolveLocked(ms[i].addr, sc.keys[i].typ, sc.keys[i].cid, ms[i].buf[:ms[i].n])
				if shed {
					sc.keys[i].accounted = true
					shedAny = true
				}
			}
			sc.conns = append(sc.conns, c)
			sc.fresh = append(sc.fresh, isNew)
		}
		e.mu.Unlock()
	} else {
		for range ms {
			sc.conns = append(sc.conns, nil)
			sc.fresh = append(sc.fresh, false)
		}
	}

	sc.touched = sc.touched[:0]
	for i := range ms {
		c := sc.conns[i]
		sc.conns[i] = nil
		if c == nil {
			if !sc.keys[i].accounted {
				e.noRoute.Add(1)
			}
			continue
		}
		accountRx(c, sc.keys[i].typ, ms[i].n)
		err := e.handleFrame(c, ms[i].buf[:ms[i].n])
		if sc.fresh[i] && !e.finishAccept(c, err) {
			continue
		}
		if !containsConn(sc.touched, c) {
			sc.touched = append(sc.touched, c)
		}
	}
	// Stateless Retries queued during resolution ride the same
	// end-of-batch flush as everything the round produced.
	produced := shedAny
	for i, c := range sc.touched {
		produced = e.service(c) || produced
		sc.touched[i] = nil
	}
	// One flush for the whole batch: every frame the round produced —
	// acks from many receivers, data releases from many senders —
	// shares the sendmmsg syscalls.
	if produced {
		e.tx.flushPending()
	}
}

func containsConn(cs []*Conn, c *Conn) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// serviceFlush services one connection and immediately pushes whatever
// frames it produced to the wire. Entry points outside the endpoint's
// internal rounds (Dial, Conn.Write, single-datagram Deliver) use it;
// the batch and timer rounds instead flush once per round.
func (e *Endpoint) serviceFlush(c *Conn) {
	if e.service(c) {
		e.tx.flushPending()
	}
}

// accountRx maintains a responder's pre-validation amplification
// state: Connect bytes grow the 3x send allowance, while any frame
// routed by our local CID proves the peer's address — the CID travels
// only in our Accept, so a spoofing attacker can never learn it.
// Sealed datagrams also only grow the allowance: a 0-RTT first flight
// travels under the client's proposed CID, which an off-path attacker
// chose itself, so address proof waits for an authenticated 1-RTT
// open in handleFrame.
func accountRx(c *Conn, typ packet.Type, n int) {
	if c.validated.Load() {
		return
	}
	if typ == packet.TypeConnect || typ == packet.TypeSealed {
		c.ampRx.Add(int64(n))
	} else {
		c.validated.Store(true)
	}
}

// handleFrame feeds one classified datagram to its connection's state
// machine, opening sealed datagrams first. Open decrypts in place —
// the receive buffer is the driver's to reuse after delivery anyway —
// and a failed open wipes what it was given: the datagram is dropped
// here on any open error and never read again, so no byte of an
// unauthenticated datagram reaches the state machine. An authenticated
// open at epoch >= 1 (any 1-RTT key generation) proves the peer's
// address where accountRx could not (those keys bind the full
// handshake transcript). On an encrypted connection a cleartext frame of any
// post-handshake type is dropped undecoded: accepting it would let an
// on-path attacker inject the exact plaintext the sealing exists to
// block.
func (e *Endpoint) handleFrame(c *Conn, dgram []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(dgram) > 0 && packet.Type(dgram[0]&0x0f) == packet.TypeSealed {
		sess := c.inner.CryptoSession()
		if sess == nil {
			e.openFails.Add(1)
			return errors.New("qtpnet: sealed datagram before keys exist")
		}
		frame, epoch, err := sess.Open(dgram)
		if err != nil {
			e.openFails.Add(1)
			return err
		}
		if epoch >= qcrypto.Epoch1RTT {
			c.validated.Store(true)
		}
		dgram = frame
	} else if c.inner.CryptoEnabled() && len(dgram) > 0 &&
		!packet.Cleartext(packet.Type(dgram[0]&0x0f)) {
		e.openFails.Add(1)
		return errors.New("qtpnet: cleartext frame on encrypted connection")
	}
	return c.inner.HandleFrame(e.now(), dgram)
}

// shedRetryAfterMS is the hold-off hint stamped on load-shedding
// Retries, long enough to let an accept-queue backlog drain without
// pushing a legitimate dialer past its bounded handshake attempts.
const shedRetryAfterMS = 500

// resumeCacheCap bounds the per-endpoint 0-RTT resumption cache; a
// dialer talking to more peers than this just pays a full round-trip
// on the evicted ones.
const resumeCacheCap = 1024

// resolveLocked finds the connection a classified frame belongs to,
// creating a responder for a first-contact Connect that passes
// stateless admission. isNew reports creation; shed reports that the
// Connect was answered with a stateless Retry (address-validation
// challenge or load shed) instead — a queued frame the caller owes a
// flush for, never a no-route. Callers hold e.mu.
func (e *Endpoint) resolveLocked(from netip.AddrPort, typ packet.Type, cid uint32, dgram []byte) (c *Conn, isNew, shed bool) {
	if typ == packet.TypeSealed {
		// An epoch-0 sealed datagram is a 0-RTT first flight, sealed
		// before the Accept delivered our CID: it rides the client's
		// proposed CID, which lives in the peer's ID space — a value
		// that can collide with an ID we minted for someone else — so
		// it routes by peer address exactly like the Connect it rides
		// with. Everything else carries our CID.
		if len(dgram) > 1 && dgram[1] == uint8(qcrypto.Epoch0RTT) {
			return e.byPeer[peerKey{normalize(from), cid}], false, false
		}
		return e.byID[cid], false, false
	}
	if typ != packet.TypeConnect {
		// Data-plane route: the header's connection ID is ours.
		return e.byID[cid], false, false
	}
	// Handshake route: the initiator cannot stamp our ID yet.
	from = normalize(from)
	key := peerKey{from, cid}
	if c, ok := e.byPeer[key]; ok {
		return c, false, false
	}
	if !e.cfg.AcceptInbound || e.closed {
		return nil, false, false
	}
	// Stateless admission. Everything up to conn creation allocates
	// nothing per client: a spoofed-source flood costs this endpoint one
	// handshake parse and at most one HMAC per datagram.
	var hdr packet.Header
	payload, err := hdr.Parse(dgram)
	if err != nil {
		return nil, false, false
	}
	var hs packet.Handshake
	if err := hs.Parse(payload); err != nil {
		return nil, false, false
	}
	if !e.cfg.DisableEncryption && len(hs.KeyShare) == 0 {
		// A plaintext client against an encrypted endpoint: drop it
		// statelessly. Allocating a responder would only have the state
		// machine refuse the same Connect with ErrCryptoRequired.
		e.hsDropped.Add(1)
		return nil, false, false
	}
	validated := false
	if len(hs.Token) > 0 && e.minter != nil {
		if e.minter.Validate(e.minter.NowSecs(), from, cid, hs.Token) == nil {
			validated = true
		} else {
			e.tokenInvalid.Add(1)
		}
	}
	if !validated && e.tokenRequiredLocked() {
		e.sendRetryLocked(from, cid, &hdr, len(dgram), 0)
		return nil, false, true
	}
	if len(e.acceptCh) >= cap(e.acceptCh) || !e.takeAcceptTokenLocked() {
		// Saturated accept queue or exhausted admission budget: shed the
		// newest Connect statelessly with a hold-off hint rather than
		// allocating a responder that finishAccept would only abandon.
		e.hsDropped.Add(1)
		e.sendRetryLocked(from, cid, &hdr, len(dgram), shedRetryAfterMS)
		return nil, false, true
	}
	id := e.allocIDLocked()
	c = newConn(e, from, id)
	c.remoteID = cid
	c.validated.Store(validated)
	c.inner = qtp.NewConn(qtp.Config{
		Initiator:   false,
		Constraints: e.cfg.Constraints,
		LocalID:     id,
		Encrypt:     !e.cfg.DisableEncryption,
		Tickets:     e.tickets,
	})
	e.byID[id] = c
	e.byPeer[key] = c
	return c, true, false
}

// tokenRequiredLocked reports whether a token-less Connect must be
// challenged: always under RequireToken, and automatically once the
// accept queue is half full — the endpoint trades one extra handshake
// round-trip for proof the queue slots go to reachable addresses.
// Callers hold e.mu.
func (e *Endpoint) tokenRequiredLocked() bool {
	if e.cfg.RequireToken {
		return true
	}
	n := len(e.acceptCh)
	return n > 0 && 2*n >= cap(e.acceptCh)
}

// takeAcceptTokenLocked spends one unit of the accept-rate budget,
// reporting false when the bucket is dry. Callers hold e.mu.
func (e *Endpoint) takeAcceptTokenLocked() bool {
	if e.cfg.AcceptRate <= 0 {
		return true
	}
	now := e.now()
	if now > e.hsLast {
		e.hsTokens += e.cfg.AcceptRate * (now - e.hsLast).Seconds()
		e.hsTokens = math.Min(e.hsTokens, e.hsBurst)
		e.hsLast = now
	}
	if e.hsTokens < 1 {
		return false
	}
	e.hsTokens--
	return true
}

// sendRetryLocked queues a stateless Retry answering a Connect of rxLen
// bytes from the given address: a fresh source-address token, plus a
// hold-off hint when shedding load. The Retry echoes the client's
// proposed CID (so its conn-ID check passes) and the Connect's
// timestamp (so it can seed an RTT sample). A Retry that would exceed
// 3x the bytes the Connect spent is suppressed — the endpoint must
// never amplify toward an unproven source, whatever the frame. Callers
// hold e.mu and owe the scheduler a flush once it is released.
func (e *Endpoint) sendRetryLocked(from netip.AddrPort, cid uint32, connect *packet.Header, rxLen int, retryAfterMS uint32) {
	if e.minter == nil {
		return
	}
	r := packet.Retry{
		Token:        e.minter.Mint(e.minter.NowSecs(), from, cid, nil),
		RetryAfterMS: retryAfterMS,
	}
	payload, err := r.AppendTo(nil)
	hdr := packet.Header{
		Type:       packet.TypeRetry,
		ConnID:     cid,
		Timestamp:  uint32(e.now() / time.Microsecond),
		TSEcho:     connect.Timestamp,
		PayloadLen: uint16(len(payload)),
	}
	buf := bufpool.Get()
	frame := append(hdr.AppendTo(buf[:0]), payload...)
	if err != nil || len(frame) > 3*rxLen {
		e.ampCapped.Add(1)
		bufpool.Put(buf)
		return
	}
	e.retrySent.Add(1)
	e.tx.enqueue(from, frame)
}

// finishAccept queues a just-created responder for Accept, or abandons
// it if its first frame was garbage or the backlog is full. It runs
// before the connection is first serviced, so a refused handshake never
// answers on the wire and the peer's Connect retransmission tries
// again. It reports whether the connection was kept.
func (e *Endpoint) finishAccept(c *Conn, err error) bool {
	c.mu.Lock()
	st := c.inner.State()
	c.mu.Unlock()
	if err != nil || st == qtp.StateIdle || st == qtp.StateClosed {
		c.teardown()
		return false
	}
	select {
	case e.acceptCh <- c:
		return true
	default:
		// The backlog filled between stateless admission and queueing —
		// rare now that saturation is shed pre-allocation, but still
		// reachable from a racing batch. Counted, and logged by qtpd -v
		// via the stats line, instead of vanishing silently.
		e.acceptOverflow.Add(1)
		c.teardown()
		return false
	}
}

// allocIDLocked returns a connection ID unused on this endpoint. On a
// sharded endpoint the ID's top bits name this shard (see
// packet.CIDShard), which is what lets any shard route a stray frame to
// its owner without a shared table; shards only ever mint inside their
// own prefix, so IDs are unique across the whole reuseport group.
// Callers hold e.mu.
func (e *Endpoint) allocIDLocked() uint32 {
	for {
		seq := e.nextID
		e.nextID++
		if e.nextID == 0 {
			e.nextID = 1
		}
		id := seq
		if e.shard.enabled {
			id = packet.CIDForShard(e.shard.idx, seq)
		}
		if _, busy := e.byID[id]; !busy && id != 0 {
			return id
		}
	}
}

// service drives one connection: enqueue due frames on the shared send
// scheduler, deliver readable data, then reschedule its deadline in the
// shared timer heap. It is called after every event touching the
// connection (inbound frames, application write, timer expiry) and
// reports whether it enqueued frames, which the caller owes a
// flushPending for once its round completes.
//
// Frames are built directly into pooled buffers whose ownership passes
// to the scheduler; nothing touches the socket while a connection lock
// is held (queue-bounding flushes run after c.mu is released), so a
// slow wire never stalls another connection's delivery or timers.
func (e *Endpoint) service(c *Conn) (produced bool) {
	lingering := c.lingering.Load()
	var txb []byte
	c.mu.Lock()
	now := e.now()
	// The connection's TFRC rate converts data-frame lengths into the
	// inter-packet gaps the scheduler stamps as SO_TXTIME release
	// instants on capable sockets. Control and feedback frames stay
	// unpaced — an ack held back by the qdisc would inflate the peer's
	// RTT sample for nothing.
	rate := c.inner.Rate()
	sess := c.inner.CryptoSession()
	for {
		if txb == nil {
			txb = bufpool.Get()
		}
		frame, ok := c.inner.PollFrameAppend(now, txb[:0])
		if !ok {
			break
		}
		if sess == nil {
			// Keys can appear inside this very round: a responder derives
			// them while handling the Connect whose Accept it polls here.
			sess = c.inner.CryptoSession()
		}
		wire := frame
		var sb []byte
		if sess != nil && len(frame) > 0 &&
			!packet.Cleartext(packet.Type(frame[0]&0x0f)) {
			// Seal into a second pooled buffer so txb stays reusable for
			// the next poll; the sealed buffer's ownership passes to the
			// scheduler with the enqueue.
			sb = bufpool.Get()
			sealed, err := sess.SealAppend(sb[:0], c.inner.RemoteID(), frame)
			if err != nil {
				e.sealFails.Add(1)
				bufpool.Put(sb)
				continue
			}
			wire = sealed
		}
		if !c.validated.Load() {
			// Pre-validation anti-amplification: withhold any frame that
			// would push bytes-sent past 3x bytes-received from this
			// unproven address. The state machine has already advanced
			// (control retransmissions re-arm their timer), so dropping
			// the frame here never spins; a capped Accept goes out on a
			// later retransmission once more Connect bytes arrive. The
			// cap charges wire bytes — what the victim's link would see —
			// so sealed frames count their AEAD overhead too.
			if c.ampTx.Load()+int64(len(wire)) > 3*c.ampRx.Load() {
				e.ampCapped.Add(1)
				if sb != nil {
					bufpool.Put(sb)
				}
				continue
			}
			c.ampTx.Add(int64(len(wire)))
		}
		var gapNs uint32
		if rate > 0 && len(frame) > 0 &&
			packet.Type(frame[0]&0x0f) == packet.TypeData {
			gapNs = paceGapNs(len(wire), rate)
		}
		e.tx.enqueuePaced(c.peer, wire, gapNs)
		produced = true
		if sb != nil {
			if cap(wire) != cap(sb) {
				// SealAppend outgrew the pooled buffer — impossible for
				// MTU-bounded frames, but never leak the pool slot.
				bufpool.Put(sb)
			}
		} else if cap(wire) == cap(txb) {
			txb = nil // the scheduler owns the pooled buffer now
		}
	}
	var newResume *qcrypto.Resumption
	st := c.inner.State()
	if st == qtp.StateEstablished || st == qtp.StateClosing {
		c.estOnce.Do(func() {
			close(c.established)
			// Handshake-completion crypto bookkeeping, exactly once per
			// connection: counters on the responder, the next connection's
			// resumption state on the initiator. The cache store happens
			// after c.mu is released — e.mu never nests inside c.mu.
			if info := c.inner.CryptoInfo(); info.Enabled {
				if c.initiator {
					newResume = c.inner.TakeResumption()
				} else {
					if info.TicketIssued {
						e.ticketsIssued.Add(1)
					}
					if info.EarlyOffered && info.EarlyAccepted {
						e.zeroRTTAccepted.Add(1)
					} else if info.EarlyOffered {
						e.zeroRTTRejected.Add(1)
					}
				}
			}
		})
	}
	// New inbound streams announced by the peer's first frame: register
	// them so their data routes, and queue them for AcceptStream.
	for {
		id, ok := c.inner.AcceptStreamID()
		if !ok {
			break
		}
		sst, _ := c.inner.StreamStats(id)
		s := newNetStream(c, id, sst.Mode)
		c.streams[id] = s
		select {
		case c.acceptStreams <- s:
		default:
			// Cannot happen: the queue is sized at the stream cap. Keep
			// the stream routable regardless.
		}
	}
	for {
		id, chunk, ok := c.inner.ReadAny()
		if !ok {
			break
		}
		if lingering {
			// Grace period after an application close: the state machine
			// still runs (acking retransmissions, answering Close) but
			// nobody is reading — recycle deliveries immediately.
			bufpool.PutChunk(chunk)
			continue
		}
		ch := c.readCh
		if id != 0 {
			s := c.streams[id]
			if s == nil {
				e.recvDrops.Add(1)
				bufpool.PutChunk(chunk)
				continue
			}
			ch = s.readCh
		}
		select {
		case ch <- chunk:
		default:
			// Application is slow; drop oldest so one stalled reader
			// cannot wedge the endpoint that serves everyone else.
			select {
			case old := <-ch:
				e.recvDrops.Add(1)
				bufpool.PutChunk(old)
			default:
			}
			select {
			case ch <- chunk:
			default:
				e.recvDrops.Add(1)
				bufpool.PutChunk(chunk)
			}
		}
	}
	wakeAt, wok := c.inner.NextWake(now)
	c.mu.Unlock()
	if txb != nil {
		bufpool.Put(txb)
	}
	if newResume != nil {
		e.mu.Lock()
		if !e.closed {
			if len(e.resume) >= resumeCacheCap {
				// Bounded by eviction of an arbitrary entry: the cache is
				// an optimization, and Go's map iteration order spreads
				// the evictions around.
				for k := range e.resume {
					delete(e.resume, k)
					break
				}
			}
			e.resume[c.peer] = newResume
		}
		e.mu.Unlock()
	}
	if produced {
		// Off the connection lock now: bound the queue mid-round. The
		// full flush still belongs to the caller's round boundary.
		e.tx.flushIfFull()
	}

	if st == qtp.StateClosed {
		c.teardown()
		return produced
	}
	graceExpired := false
	e.mu.Lock()
	if !c.gone {
		if lingering {
			if e.now() >= c.graceUntil {
				graceExpired = true
			} else if !wok || wakeAt > c.graceUntil {
				// The grace deadline rides the shared timer heap like any
				// protocol deadline, so a silent peer cannot pin the entry.
				wakeAt, wok = c.graceUntil, true
			}
		}
		if !graceExpired {
			if wok {
				e.timers.set(c, wakeAt)
				if wakeAt < e.sleepUntil {
					e.kick()
				}
			} else {
				e.timers.remove(c)
			}
		}
	}
	e.mu.Unlock()
	if graceExpired {
		c.teardown()
	}
	return produced
}

// retireConn is the application-close path. A connection whose protocol
// exchange already finished (or never started) is torn down at once. One
// closed mid-exchange — typically a receiver closed the moment
// Finished() reported true, while the sender's final ack round and Close
// are still in flight — instead enters a TIME_WAIT-style grace: the
// application-facing side closes immediately, but the demux entry stays
// routable so the state machine can ack the stream tail and answer the
// peer's Close, rather than leaving the sender retransmitting into
// NoRoute until its retries give up. The entry is reclaimed the moment
// the protocol close completes, or after closeGrace if the peer goes
// silent.
func (e *Endpoint) retireConn(c *Conn) {
	c.mu.Lock()
	st := c.inner.State()
	c.mu.Unlock()
	// Linger only where the in-flight exchange benefits: a responder
	// (receiver) still acking the tail or answering Close, or either
	// side already in the close handshake. A failed handshake
	// (Connecting) or a sender aborting mid-stream tears down at once —
	// a lingering aborted sender would keep transmitting its backlog,
	// and a dead Dial would leave ghost entries retrying Connect.
	needsGrace := st == qtp.StateClosing || (st == qtp.StateEstablished && !c.initiator)
	if !needsGrace {
		c.teardown()
		return
	}
	e.mu.Lock()
	if c.lingering.Load() {
		e.mu.Unlock()
		return // second Close during the grace: nothing more to do
	}
	if e.closed || c.gone {
		e.mu.Unlock()
		c.teardown()
		return
	}
	c.graceUntil = e.now() + closeGrace
	c.lingering.Store(true)
	e.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closedCh) })
	// Service immediately: flush any pending ack/close frames and arm
	// the grace deadline on the timer heap.
	e.serviceFlush(c)
}

// timerLoop is the shared scheduler: one goroutine, one timer, every
// connection's NextWake. It sleeps until the earliest deadline in the
// heap and services exactly the connections that are due.
func (e *Endpoint) timerLoop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []*Conn
	for {
		e.mu.Lock()
		now := e.now()
		due = due[:0]
		for {
			c, ok := e.timers.popDue(now)
			if !ok {
				break
			}
			due = append(due, c)
		}
		d := time.Hour
		if len(e.timers) > 0 {
			d = e.timers[0].wakeAt - now
		}
		e.sleepUntil = now + d
		e.mu.Unlock()

		produced := false
		for _, c := range due {
			produced = e.service(c) || produced
		}
		if len(due) > 0 {
			// One flush per timer round: paced frames released by this
			// round's deadlines leave in shared syscalls.
			if produced {
				e.tx.flushPending()
			}
			continue // servicing may have re-armed earlier deadlines
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-e.wake:
		case <-timer.C:
		case <-e.done:
			return
		}
	}
}

// kick wakes the scheduler to re-read the heap's earliest deadline.
func (e *Endpoint) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// removeConn unlinks a connection from the demux tables and the timer
// heap. Idempotent: once gone, a second call must not touch the tables,
// whose entries may since belong to a successor connection.
func (e *Endpoint) removeConn(c *Conn) {
	e.mu.Lock()
	if !c.gone {
		delete(e.byID, c.localID)
		// Only responders own a handshake-route entry; a dialed conn whose
		// (peer, id) pair happens to collide must not evict it.
		key := peerKey{c.peer, c.remoteID}
		if cur, ok := e.byPeer[key]; ok && cur == c {
			delete(e.byPeer, key)
		}
		e.timers.remove(c)
		c.gone = true
		close(c.reaped)
	}
	e.mu.Unlock()
}

// normalize strips the IPv4-in-IPv6 mapping so addresses read from a
// dual-stack socket compare equal to their resolved form.
func normalize(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}
