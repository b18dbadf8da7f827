package qtpnet

import (
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
)

// ShardedEndpoint runs N Endpoints bound to one UDP port via
// SO_REUSEPORT: the kernel hashes inbound datagrams across the shards
// by flow 4-tuple, and each shard owns a complete batched data path —
// its own receive ring, send scheduler, demux tables and timer heap —
// so the steady-state hot path takes no cross-shard locks and scales
// with cores.
//
// Segment offload composes with sharding shard-locally: because shards
// share nothing on the send path, each shard's socket carries its own
// independent GSO/GRO slot — probed at that socket's bind, coalescing
// that shard's flush queue into its own UDP_SEGMENT trains, and
// tripping off alone if the kernel refuses one of its sends. A
// fallback on one shard never degrades the others; per-shard offload
// counters are visible via ShardStats.
//
// The two routing schemes are reconciled by the connection-ID layout
// (packet.CIDShard): every CID a shard mints carries its own index in
// the top bits. Handshake frames, which carry no routable CID yet, are
// claimed by whichever shard the kernel hashes them to — that shard
// mints a CID naming itself, so the rest of the flow keeps hashing home.
// A frame that still lands on the wrong shard (a dialed-out flow whose
// reply hash differs from the minting shard, a rebalanced peer) is
// forwarded exactly once over the owner's lock-free handoff ring.
//
// On platforms without SO_REUSEPORT the constructor falls back to a
// single shard, which behaves identically to a plain Endpoint.
type ShardedEndpoint struct {
	shards []*Endpoint
	rings  []*handoffRing

	acceptCh  chan *Conn
	done      chan struct{}
	closeOnce sync.Once
	dialRR    atomic.Uint32
}

// NewShardedEndpoint opens nShards UDP sockets on addr (one socket and
// one Endpoint per shard) and starts their loops. nShards <= 0 selects
// GOMAXPROCS; the count is capped at packet.MaxShards and clamped to 1
// where SO_REUSEPORT is unavailable.
func NewShardedEndpoint(addr string, cfg EndpointConfig, nShards int) (*ShardedEndpoint, error) {
	if nShards <= 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	if nShards > packet.MaxShards {
		nShards = packet.MaxShards
	}
	if !reusePortSupported() {
		nShards = 1
	}
	cfg = cfg.resolved()

	s := &ShardedEndpoint{
		acceptCh: make(chan *Conn, cfg.AcceptBacklog),
		done:     make(chan struct{}),
	}
	// One token minter for the whole group: the kernel's reuseport hash
	// can land a client's tokened Connect on a different shard than the
	// one that minted its token.
	var minter *packet.TokenMinter
	if cfg.AcceptInbound {
		minter = packet.NewTokenMinter(0)
	}
	// Likewise one session-ticket store: a resuming client's 0-RTT
	// Connect may hash to a different shard than the one whose Accept
	// minted its ticket.
	var tickets *qcrypto.TicketStore
	if cfg.AcceptInbound && !cfg.DisableEncryption {
		tickets = qcrypto.NewTicketStore(0)
	}

	if nShards == 1 {
		// Portable fallback (and the trivial single-shard case): one
		// plain endpoint, no reuseport, no shard CID bits, no rings —
		// only the accept queue is ours so Accept works uniformly.
		pc, err := listenUDP(addr)
		if err != nil {
			return nil, err
		}
		s.shards = []*Endpoint{newEndpointOn(pc, cfg, shardEnv{acceptCh: s.acceptCh, minter: minter, tickets: tickets})}
		go s.watchShard(s.shards[0])
		return s, nil
	}

	sockets := make([]*net.UDPConn, 0, nShards)
	fail := func(err error) (*ShardedEndpoint, error) {
		for _, pc := range sockets {
			pc.Close()
		}
		return nil, err
	}
	first, err := listenReusePort(addr)
	if err != nil {
		return fail(fmt.Errorf("qtpnet: shard 0 listen %s: %w", addr, err))
	}
	sockets = append(sockets, first)
	// Shard 0 resolves ":0"-style addresses to a concrete port; the
	// remaining shards must join exactly that port's reuseport group.
	bound := first.LocalAddr().String()
	for i := 1; i < nShards; i++ {
		pc, err := listenReusePort(bound)
		if err != nil {
			return fail(fmt.Errorf("qtpnet: shard %d listen %s: %w", i, bound, err))
		}
		sockets = append(sockets, pc)
	}

	s.rings = make([]*handoffRing, nShards)
	for i := range s.rings {
		s.rings[i] = newHandoffRing()
	}
	s.shards = make([]*Endpoint, nShards)
	for i, pc := range sockets {
		s.shards[i] = newEndpointOn(pc, cfg, shardEnv{
			enabled:  true,
			idx:      uint32(i),
			forward:  s.forward,
			acceptCh: s.acceptCh,
			minter:   minter,
			tickets:  tickets,
		})
	}
	for i := range s.shards {
		go s.drainHandoff(i)
		go s.watchShard(s.shards[i])
	}
	return s, nil
}

// watchShard propagates a shard's death to the whole group: a shard
// that tears itself down on a persistent socket error (read failure,
// fatal send) would otherwise leave Accept blocked forever on a group
// that can no longer serve. Closing the group surfaces the cause via
// Err and unblocks Accept with ErrEndpointClosed, exactly as a plain
// Endpoint's self-close always has.
func (s *ShardedEndpoint) watchShard(e *Endpoint) {
	select {
	case <-e.done:
		s.Close()
	case <-s.done:
	}
}

// forward copies a foreign-shard datagram into a pooled buffer and
// pushes it onto the owning shard's handoff ring. It is called from the
// wrong shard's read loop and never blocks; a full ring (or a CID
// naming a shard that does not exist) drops the frame, which the
// transport recovers like any datagram loss.
func (s *ShardedEndpoint) forward(shard uint32, from netip.AddrPort, dgram []byte) bool {
	if int(shard) >= len(s.shards) {
		return false
	}
	buf := bufpool.Get()
	n := copy(buf, dgram)
	r := s.rings[shard]
	if !r.push(from, buf[:n]) {
		bufpool.Put(buf)
		return false
	}
	r.notify()
	return true
}

// drainHandoff is shard i's handoff consumer: it delivers frames other
// shards forwarded here, then sleeps until the next push.
func (s *ShardedEndpoint) drainHandoff(i int) {
	r := s.rings[i]
	e := s.shards[i]
	for {
		for {
			from, buf, ok := r.pop()
			if !ok {
				break
			}
			e.deliverForwarded(from, buf)
			bufpool.Put(buf)
		}
		select {
		case <-r.wake:
		case <-s.done:
			for { // release anything still queued
				_, buf, ok := r.pop()
				if !ok {
					return
				}
				bufpool.Put(buf)
			}
		}
	}
}

// NumShards returns how many shards are actually running (1 on the
// portable fallback regardless of what was requested).
func (s *ShardedEndpoint) NumShards() int { return len(s.shards) }

// Shard returns shard i's endpoint, for per-shard introspection.
func (s *ShardedEndpoint) Shard(i int) *Endpoint { return s.shards[i] }

// Addr returns the UDP address every shard is bound to.
func (s *ShardedEndpoint) Addr() net.Addr { return s.shards[0].Addr() }

// ConnCount returns the number of live connections across all shards.
func (s *ShardedEndpoint) ConnCount() int {
	n := 0
	for _, e := range s.shards {
		n += e.ConnCount()
	}
	return n
}

// Stats aggregates datagram-path counters across every shard; sum
// counters add, max-batch fields take the group maximum. In a healthy
// steady state CrossShardFwd stays a small fraction of DatagramsIn.
func (s *ShardedEndpoint) Stats() EndpointStats {
	var st EndpointStats
	for _, e := range s.shards {
		st = st.add(e.Stats())
	}
	return st
}

// ShardStats snapshots each shard's own counters, in shard order.
func (s *ShardedEndpoint) ShardStats() []EndpointStats {
	sts := make([]EndpointStats, len(s.shards))
	for i, e := range s.shards {
		sts[i] = e.Stats()
	}
	return sts
}

// Err returns the first persistent socket error that shut a shard down,
// if any.
func (s *ShardedEndpoint) Err() error {
	for _, e := range s.shards {
		if err := e.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Dial opens an initiator connection over one of the shards, chosen
// round-robin. The reply flow is kernel-hashed independently of that
// choice, so dialed connections are where cross-shard forwarding
// actually earns its keep.
func (s *ShardedEndpoint) Dial(addr string, profile core.Profile, timeout time.Duration) (*Conn, error) {
	i := int(s.dialRR.Add(1)-1) % len(s.shards)
	return s.shards[i].Dial(addr, profile, timeout)
}

// Accept blocks until any shard completes an inbound handshake (server
// role; requires AcceptInbound).
func (s *ShardedEndpoint) Accept() (*Conn, error) {
	select {
	case c := <-s.acceptCh:
		return c, nil
	default:
	}
	select {
	case c := <-s.acceptCh:
		return c, nil
	case <-s.done:
		return nil, ErrEndpointClosed
	}
}

// Close tears down every shard and its connections.
func (s *ShardedEndpoint) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		for _, e := range s.shards {
			e.Close()
		}
	})
	return nil
}
