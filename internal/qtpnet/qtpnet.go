// Package qtpnet runs QTP connections over real UDP sockets using the
// standard library's net package. It is the deployment driver for the
// same sans-IO state machines the simulator exercises.
//
// The unit of deployment is the Endpoint: one UDP socket serving many
// connections. Inbound datagrams are demultiplexed by the connection-ID
// field every QTP header and every sealed-datagram prefix carries —
// each side tells the other which ID to stamp via a handshake TLV, so
// the ID an endpoint sees on inbound frames is one it assigned itself
// and is unique on its socket, like QUIC connection IDs. Handshake
// frames — and epoch-0 (0-RTT) sealed datagrams, whose ID is still the
// client's unconfirmed proposal — arrive before that negotiation
// completes and are routed by (peer address, peer ID) instead.
// A single scheduler goroutine drives every connection's protocol
// timers off one shared deadline heap, and receive buffers are pooled,
// so the per-frame receive path allocates nothing.
//
// Transport encryption is on by default: every post-handshake frame is
// sealed into an AEAD envelope (epoch + 48-bit crypto sequence in a
// cleartext prefix, AES-256-GCM over the frame bytes) keyed from an
// X25519 key share carried in the handshake TLVs and ratcheted forward
// every 2^24 datagrams, with encrypted session tickets enabling 0-RTT
// resumption. docs/WIRE.md specifies
// the bytes, docs/SECURITY.md the threat model;
// EndpointConfig.DisableEncryption is the interop/debug escape hatch.
//
// The unit of multi-core scaling is the ShardedEndpoint: N Endpoints
// bound to one port via SO_REUSEPORT, kernel-hashed, with the owning
// shard encoded in the top bits of every locally-minted connection ID
// so stray frames are forwarded once over a lock-free handoff ring (see
// packet.CIDShard for the layout).
//
// Dial and Listen remain as thin wrappers for the common cases; servers
// and fan-out clients use Endpoint or ShardedEndpoint directly.
package qtpnet

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
)

// Option configures Listen and Dial. There are two: every endpoint
// setting lives once, in EndpointConfig, and the shard count is the one
// thing that is not a per-endpoint setting.
type Option func(*epOptions)

type epOptions struct {
	shards int
	cfg    EndpointConfig
}

// WithShards runs the endpoint as n SO_REUSEPORT shards (one socket,
// receive ring and send scheduler per shard; see ShardedEndpoint).
// n <= 0 selects one shard per GOMAXPROCS core; the count is capped at
// packet.MaxShards, and platforms without SO_REUSEPORT fall back to a
// single shard.
func WithShards(n int) Option {
	return func(o *epOptions) { o.shards = n }
}

// WithEndpointConfig sets the EndpointConfig the implicit endpoint is
// built from. Listen still owns AcceptInbound and Constraints; fields
// that only matter to an accepting endpoint (RequireToken, AcceptRate)
// are inert on Dial.
func WithEndpointConfig(cfg EndpointConfig) Option {
	return func(o *epOptions) { o.cfg = cfg }
}

func applyOptions(opts []Option) epOptions {
	o := epOptions{shards: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Dial connects to a QTP responder at addr, proposing the profile, over
// a private single-connection endpoint (sharded when WithShards asks
// for it). It blocks until the handshake completes or the timeout
// elapses. Closing the returned connection releases the endpoint and
// its socket(s).
func Dial(addr string, profile core.Profile, timeout time.Duration, opts ...Option) (*Conn, error) {
	o := applyOptions(opts)
	se, err := NewShardedEndpoint(":0", o.cfg, o.shards)
	if err != nil {
		return nil, err
	}
	c, err := se.Dial(addr, profile, timeout)
	if err != nil {
		se.Close()
		return nil, err
	}
	c.owner = se
	return c, nil
}

// Listen opens an accepting endpoint on addr, granting at most the
// given constraints to every inbound connection. With WithShards(n) the
// listener runs n kernel-hashed SO_REUSEPORT shards.
func Listen(addr string, constraints core.Constraints, opts ...Option) (*Listener, error) {
	o := applyOptions(opts)
	o.cfg.AcceptInbound = true
	o.cfg.Constraints = constraints
	se, err := NewShardedEndpoint(addr, o.cfg, o.shards)
	if err != nil {
		return nil, fmt.Errorf("qtpnet: listen %s: %w", addr, err)
	}
	return &Listener{se: se}, nil
}

// Listener accepts QTP connections multiplexed on one UDP port — one
// socket per shard, one shard by default.
type Listener struct {
	se *ShardedEndpoint
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.se.Addr() }

// Accept blocks until a peer completes a handshake on any shard, then
// returns the connection. The listener port is shared: Accept may be
// called again for further connections.
func (l *Listener) Accept() (*Conn, error) { return l.se.Accept() }

// Endpoint exposes the listener's first (and, unsharded, only) shard.
// Sharded listeners should prefer Sharded for group-wide operations.
func (l *Listener) Endpoint() *Endpoint { return l.se.Shard(0) }

// Sharded exposes the listener's underlying shard group.
func (l *Listener) Sharded() *ShardedEndpoint { return l.se }

// Stats aggregates datagram-path counters across the listener's shards.
func (l *Listener) Stats() EndpointStats { return l.se.Stats() }

// Close releases every shard, tearing down every accepted connection.
func (l *Listener) Close() error { return l.se.Close() }
