package qtpnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
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

// The default for the one queue depth a config may leave unset, and the
// values that are deliberately not configurable at all.
const (
	// defaultAcceptBacklog is the accept-queue depth when
	// EndpointConfig.AcceptBacklog is unset.
	defaultAcceptBacklog = 64
	// minAcceptBurst floors the accept token bucket's depth, which is
	// otherwise one second's worth of AcceptRate.
	minAcceptBurst = 8
	// socketBufferBytes is the receive and send buffering asked of the
	// kernel (best-effort: it clamps to net.core.{r,w}mem_max). It
	// matters once segment offload is in play — one GRO super-datagram
	// can be 64 KiB, a third of the usual 208 KiB default, so an unlucky
	// burst tail-drops whole trains where the per-frame path would have
	// shed a few packets.
	socketBufferBytes = 2 << 20
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

// The rest of the package's errors are values too: a refused datagram
// or a failed call never allocates one.
var (
	errSealedBeforeKeys     = errors.New("qtpnet: sealed datagram before keys exist")
	errCleartextOnEncrypted = errors.New("qtpnet: cleartext frame on encrypted connection")
	errHandshakeStart       = errors.New("qtpnet: handshake start failed")
	errClosedInHandshake    = errors.New("qtpnet: connection closed during handshake")
	errHandshakeTimeout     = errors.New("qtpnet: handshake timeout")
	errConnClosed           = errors.New("qtpnet: connection closed")
)

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
	// ReadQueue is ignored: the driver holds no delivery queue to size.
	// Delivered chunks wait inside the state machine, a fixed 1 MiB unread
	// per stream at most; past it a slow reader slows its sender and loses
	// nothing (docs/WIRE.md, "Delivery and back-pressure").
	//
	// Deprecated: kept only because the repo benchmark, which later
	// changes may not edit, sets it (benchmark/README.md, "Entry points").
	ReadQueue int
	// Shards is how many sockets serve the port, each with a complete
	// data path of its own (see Endpoint). Zero or one is one plain
	// socket: no SO_REUSEPORT, no shard bits in connection IDs. More
	// join one SO_REUSEPORT group the kernel hashes flows across, capped
	// at packet.MaxShards; negative runs one per core (GOMAXPROCS).
	// Where SO_REUSEPORT is unavailable the endpoint runs one shard.
	Shards int
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
	// with a stateless Retry carrying a sealed source-address token,
	// allocating no connection state until a Connect echoes a valid
	// token. Off by default; even then the endpoint starts challenging
	// on its own once the accept queue is half full (spending one
	// AES-GCM tag per datagram beats spending a conn struct per spoofed
	// source).
	RequireToken bool
	// AcceptRate, when positive, caps new responder creation at this
	// many connections per second per shard via
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

// resolved fills in what the config left at zero and turns Shards into
// the count that will actually run.
func (cfg EndpointConfig) resolved() EndpointConfig {
	if cfg.AcceptBacklog <= 0 {
		cfg.AcceptBacklog = defaultAcceptBacklog
	}
	if cfg.Shards < 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards > packet.MaxShards {
		cfg.Shards = packet.MaxShards
	}
	if cfg.Shards == 0 || !reusePortSupported() {
		cfg.Shards = 1
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
	SendBatches  uint64 // write syscalls (one a datagram on the portable rung)
	MaxRecvBatch int    // largest single read batch
	MaxSendBatch int    // largest single write batch
	NoRoute      uint64 // datagrams that matched no connection
	RecvDrops    uint64 // data datagrams refused at a stream's unread bound: retransmitted, never bytes lost
	SendErrs     uint64 // transient send errors (datagram dropped)
	SendDrops    uint64 // datagrams abandoned by send errors

	// Segment offload (always zero where UDP_SEGMENT/UDP_GRO are
	// unavailable or disabled): GsoTrains counts the segment trains
	// sent as one UDP_SEGMENT super-datagram, GsoSegs the frames that
	// traveled inside them (GsoSegs/GsoTrains is the mean train length;
	// a train a writer without offload sends segment by segment counts
	// in neither),
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
	// RecvBatches.
	Wakeups uint64

	// Cross-shard traffic (always zero on a one-shard endpoint): frames
	// the kernel hashed to a shard other than the one their connection
	// ID names. Fwd counts at the receiving (wrong) shard, Recv at the
	// owning shard out of its inbox, Drops when the inbox was full or
	// the CID named a nonexistent shard.
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

// add folds another shard's counters into s; max-batch fields take the
// maximum.
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

// resumeCacheCap bounds the per-endpoint 0-RTT resumption cache; a
// dialer talking to more peers than this just pays a full round-trip
// on the evicted ones.
const resumeCacheCap = 1024

// Endpoint runs many QTP connections over one UDP port. The port is
// served by one or more shards (EndpointConfig.Shards), each a socket
// with a complete batched data path of its own — receive ring, send
// scheduler, demux tables, timer heap — and one goroutine that runs it
// all (shard.loop), so the per-datagram path takes no cross-shard lock
// and scales with cores. Inbound datagrams arrive in batches — one
// recvmmsg syscall fills a ring of pooled buffers, and the whole batch
// is demultiplexed under a single table-lock acquisition. Outbound
// frames from every connection on a shard funnel through one send
// scheduler that flushes them with sendmmsg, so connections sharing the
// socket also share syscalls, and the loop parks in the socket read
// until the earliest protocol deadline in the shard's heap. On
// platforms without the batch syscalls both paths degrade to one
// datagram per call with identical semantics.
//
// With more than one shard the sockets share the port via SO_REUSEPORT
// and the kernel hashes inbound datagrams across them by flow 4-tuple.
// The two routing schemes are reconciled by the connection-ID layout
// (packet.CIDShard): every CID a shard mints carries its own index in
// the top bits. Handshake frames, which carry no routable CID yet, are
// claimed by whichever shard the kernel hashes them to — that shard
// mints a CID naming itself, so the rest of the flow keeps hashing home.
// A frame that still lands on the wrong shard (a dialed-out flow whose
// reply hash differs from the minting shard, a rebalanced peer) is
// forwarded exactly once to the owner's inbox. Segment offload composes
// shard-locally: each socket probes its own GSO/GRO slot at bind and
// trips off alone if the kernel refuses one of its sends (ShardStats).
//
// What is per-port rather than per-socket lives here, once: the accept
// queue, the two blob minters for retry tokens and session tickets (the
// reuseport hash can move a client between shards across its Retry
// round-trip, or between a connection and its resumption, so both must
// open port-wide), the
// dialer's resumption cache, and the lifecycle.
//
// Frames are sealed into AEAD envelopes just before they reach the
// send scheduler and opened just after demux, so every batching layer
// (sendmmsg, GSO trains) handles sealed datagrams exactly as it handled
// plaintext; see docs/WIRE.md for the envelope bytes and
// EndpointConfig.DisableEncryption for the escape hatch.
type Endpoint struct {
	cfg    EndpointConfig
	shards []*shard

	// tokens mints/validates source-address tokens and tickets
	// mints/redeems 0-RTT session tickets; both exist exactly when the
	// endpoint accepts (encrypted, for tickets) inbound connections. Two
	// minters, because the two lifetimes differ, and separate keys mean
	// neither kind of blob ever opens as the other.
	tokens  *qcrypto.Minter
	tickets *qcrypto.Minter

	acceptCh chan *Conn
	dialRR   atomic.Uint32

	mu sync.Mutex
	// resume caches the latest resumption state harvested per peer
	// (guarded by mu): the next Dial to that address pops it and sends
	// 0-RTT data in its first flight. Single-use by construction —
	// Dial deletes the entry it takes.
	resume map[netip.AddrPort]*qcrypto.Resumption
	err    error // first persistent socket error (guarded by mu)

	done      chan struct{}
	closeOnce sync.Once
}

// NewEndpoint binds cfg.Shards UDP sockets on addr and starts one
// goroutine on each. Use addr ":0" for an ephemeral dial-side port.
func NewEndpoint(addr string, cfg EndpointConfig) (*Endpoint, error) {
	cfg = cfg.resolved()
	socks, err := listenShards(addr, cfg.Shards)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		cfg:      cfg,
		shards:   make([]*shard, len(socks)),
		acceptCh: make(chan *Conn, cfg.AcceptBacklog),
		resume:   make(map[netip.AddrPort]*qcrypto.Resumption),
		done:     make(chan struct{}),
	}
	if cfg.AcceptInbound {
		e.tokens = qcrypto.NewMinter(tokenLifetime)
		if !cfg.DisableEncryption {
			e.tickets = qcrypto.NewMinter(qcrypto.TicketLifetime)
		}
	}
	for i, pc := range socks {
		e.shards[i] = newShard(e, uint32(i), pc)
	}
	for _, sh := range e.shards {
		sh.start()
	}
	return e, nil
}

// listenShards binds n sockets on addr: one plain socket, or n joined
// to one port's SO_REUSEPORT group.
func listenShards(addr string, n int) ([]*net.UDPConn, error) {
	if n == 1 {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("qtpnet: resolve %s: %w", addr, err)
		}
		pc, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, fmt.Errorf("qtpnet: listen %s: %w", addr, err)
		}
		return []*net.UDPConn{pc}, nil
	}
	socks := make([]*net.UDPConn, 0, n)
	// Shard 0 resolves ":0"-style addresses to a concrete port; the
	// remaining shards must join exactly that port's reuseport group.
	bound := addr
	for i := 0; i < n; i++ {
		pc, err := listenReusePort(bound)
		if err != nil {
			for _, pc := range socks {
				pc.Close()
			}
			return nil, fmt.Errorf("qtpnet: shard %d listen %s: %w", i, bound, err)
		}
		socks = append(socks, pc)
		bound = pc.LocalAddr().String()
	}
	return socks, nil
}

// Addr returns the UDP address every shard is bound to.
func (e *Endpoint) Addr() net.Addr { return e.shards[0].pc.LocalAddr() }

// NumShards returns how many shards are actually running (1 where
// SO_REUSEPORT is unavailable, whatever was asked for).
func (e *Endpoint) NumShards() int { return len(e.shards) }

// ConnCount returns the number of live connections on the endpoint.
func (e *Endpoint) ConnCount() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.connCount()
	}
	return n
}

// Stats snapshots the endpoint's datagram-path counters, summed over
// its shards (max-batch fields take the maximum). In a healthy steady
// state CrossShardFwd stays a small fraction of DatagramsIn.
func (e *Endpoint) Stats() EndpointStats {
	var st EndpointStats
	for _, sh := range e.shards {
		st = st.add(sh.stats())
	}
	return st
}

// ShardStats snapshots each shard's own counters, in shard order.
func (e *Endpoint) ShardStats() []EndpointStats {
	sts := make([]EndpointStats, len(e.shards))
	for i, sh := range e.shards {
		sts[i] = sh.stats()
	}
	return sts
}

// Capabilities is the data path an endpoint's socket probed in at bind,
// under its DataPath ceiling; all false on the portable rung.
type Capabilities struct {
	Batch bool // datagrams move with recvmmsg/sendmmsg
	GSO   bool // trains leave as UDP_SEGMENT super-datagrams; clears if the kernel refuses one
	GRO   bool // UDP_GRO is on: inbound bursts may arrive kernel-merged
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
// Every shard's socket is bound and probed alike; the answer is the
// first shard's (a GSO refusal trips that one shard alone — ShardStats
// shows GsoFallbacks per shard).
func (e *Endpoint) Capabilities() Capabilities {
	caps := e.shards[0].caps
	return Capabilities{
		Batch: caps.batch,
		GSO:   caps.gsoMaxSegs.Load() > 1,
		GRO:   caps.gro,
	}
}

// GSOEnabled and GROEnabled each report one field of Capabilities.
func (e *Endpoint) GSOEnabled() bool { return e.Capabilities().GSO }
func (e *Endpoint) GROEnabled() bool { return e.Capabilities().GRO }

// UringEnabled, UringDeferred and TxTimeEnabled always report false: the
// data path has no io_uring rung and stamps no SO_TXTIME release times.
//
// Deprecated: kept only because the repo benchmark, which later
// changes may not edit, calls them (benchmark/README.md, "Entry points").
func (e *Endpoint) UringEnabled() bool  { return false }
func (e *Endpoint) UringDeferred() bool { return false }
func (e *Endpoint) TxTimeEnabled() bool { return false }

// SocketBufSizes reports the effective SO_RCVBUF/SO_SNDBUF values as
// the kernel holds them, so callers (qtpd -v) can verify the
// configured request actually took. Zero where unavailable.
func (e *Endpoint) SocketBufSizes() (rcv, snd int) {
	return socketBufSizes(e.shards[0].pc)
}

// Err returns the persistent socket error that shut the endpoint down,
// if any: connections torn down by a dead socket find the cause here.
func (e *Endpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Dial opens a new initiator connection to addr over one of the
// endpoint's sockets (shards take turns), proposing the profile, and
// blocks until the handshake completes or the timeout elapses. Many
// concurrent Dials may share one endpoint. The peer's replies are
// kernel-hashed independently of the socket dialed from, so dialed
// connections are where cross-shard forwarding earns its keep.
//
// On an encrypted endpoint that holds a cached session ticket for addr
// (left by a previous connection to the same peer, whichever shard
// carried it), Dial resumes at 0-RTT: it returns as soon as the first
// flight is sent, and Write data rides that flight under the resumed
// keys — one RTT earlier than a fresh handshake. If the server rejects
// the ticket the handshake still completes normally; only the early
// data is refused (and retransmitted under the 1-RTT keys).
func (e *Endpoint) Dial(addr string, profile core.Profile, timeout time.Duration) (*Conn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("qtpnet: resolve %s: %w", addr, err)
	}
	peer := normalize(ua.AddrPort())
	sh := e.shards[int(e.dialRR.Add(1)-1)%len(e.shards)]

	// Pop any cached resumption state for this peer: tickets are
	// single-use, so the entry leaves the cache whether or not the
	// server ends up accepting the 0-RTT data.
	e.mu.Lock()
	resume := e.resume[peer]
	delete(e.resume, peer)
	e.mu.Unlock()

	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrEndpointClosed
	}
	id := sh.allocIDLocked()
	c := newConn(sh, peer, id)
	c.initiator = true
	// Dialing out proves nothing needs proving: the amplification cap
	// exists for responders answering unvalidated sources.
	c.validated.Store(true)
	// The initiator stamps its own ID until the Accept TLV delivers the
	// responder's; a symmetric legacy responder just keeps echoing it.
	c.inner = qtp.NewConn(qtp.Config{
		Initiator: true,
		Profile:   profile,
		ConnID:    id,
		Encrypt:   !e.cfg.DisableEncryption,
		Resume:    resume,
	})
	sh.byID[id] = c
	sh.mu.Unlock()

	c.mu.Lock()
	c.inner.Start(sh.now())
	earlyArmed := c.inner.CryptoInfo().EarlyOffered
	failed := c.inner.State() == qtp.StateClosed
	c.mu.Unlock()
	if failed {
		c.teardown()
		return nil, errHandshakeStart
	}
	sh.serviceFlush(c)

	if earlyArmed {
		// 0-RTT: the connection is writable right now — application data
		// rides the first flight under the resumed keys. established still
		// closes when the Accept lands, for callers that want to observe it.
		return c, nil
	}

	deadline := time.Now().Add(timeout)
	t := acquireTimer(timeout)
	defer releaseTimer(t)
	for {
		select {
		case <-c.established:
			return c, nil
		case <-c.closedCh:
			return nil, errClosedInHandshake
		case <-e.done:
			c.Close()
			return nil, ErrEndpointClosed
		case <-t.C:
			if left := time.Until(deadline); left > 0 {
				// A pooled timer can surface one stale tick (see
				// releaseTimer); a handshake must not fail on it.
				t.Reset(left)
				continue
			}
			c.Close()
			return nil, errHandshakeTimeout
		}
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

// Close tears down every connection and releases the socket(s).
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		for _, sh := range e.shards {
			sh.close()
		}
	})
	return nil
}

// fail is where a shard reports a persistent socket error (a dead read,
// a fatal send): it records the first cause and closes the whole
// endpoint, so Accept returns and every connection sees Done close
// instead of stalling against a port that can no longer serve. The
// close runs on its own goroutine because the send scheduler calls fail
// from inside a flush that Close would wait for.
func (e *Endpoint) fail(err error) {
	select {
	case <-e.done:
		return // shutdown already in progress; expected
	default:
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	go e.Close()
}

// storeResumption caches a completed handshake's resumption state for
// the next Dial to peer.
func (e *Endpoint) storeResumption(peer netip.AddrPort, r *qcrypto.Resumption) {
	e.mu.Lock()
	if len(e.resume) >= resumeCacheCap {
		// Bounded by eviction of an arbitrary entry: the cache is an
		// optimization, and Go's map iteration order spreads the
		// evictions around.
		for k := range e.resume {
			delete(e.resume, k)
			break
		}
	}
	e.resume[peer] = r
	e.mu.Unlock()
}

// Deliver injects one datagram as if it had just been read from the
// endpoint's first socket: tests and alternative drivers use it. It is
// the round a socket read goes through (shard.deliverBatch), over a
// batch of one on the caller's goroutine. The datagram memory is not
// retained; the caller may reuse it as soon as Deliver returns. It
// reports whether the frame reached a connection and was accepted — or,
// with several shards, was handed off to the one its connection ID names.
func (e *Endpoint) Deliver(from netip.AddrPort, dgram []byte) bool {
	return e.shards[0].deliver(from, dgram)
}
