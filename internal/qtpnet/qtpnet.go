// Package qtpnet runs QTP connections over real UDP sockets using the
// standard library's net package. It is the deployment driver for the
// same sans-IO state machines the simulator exercises.
//
// The unit of deployment is the Endpoint: one UDP port serving many
// connections. Inbound datagrams are demultiplexed by the connection-ID
// field every QTP header and every sealed-datagram prefix carries —
// each side tells the other which ID to stamp via a handshake TLV, so
// the ID an endpoint sees on inbound frames is one it assigned itself
// and is unique on its socket, like QUIC connection IDs. Handshake
// frames — and epoch-0 (0-RTT) sealed datagrams, whose ID is still the
// client's unconfirmed proposal — arrive before that negotiation
// completes and are routed by (peer address, peer ID) instead.
// Each shard is one loop goroutine: it reads the shard's socket and
// drives its connections' protocol timers off the shard's own deadline
// heap. The loop reaches its socket, its clock and the deadline it
// parks on only through one seam (batchIO), so a fake one can drive it
// in virtual time. Receive buffers are pooled, so the per-frame receive
// path allocates nothing.
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
// The unit of multi-core scaling is the shard: EndpointConfig.Shards
// sockets bound to the one port via SO_REUSEPORT, kernel-hashed, with
// the owning shard encoded in the top bits of every locally-minted
// connection ID so stray frames are forwarded once to their owner (see
// packet.CIDShard for the layout). One shard — the default — is a plain
// socket with no shard bits anywhere.
//
// NewEndpoint is the one constructor; Dial and Listen are zero-config
// helpers over it for the common cases.
package qtpnet

import (
	"time"

	"repro/internal/core"
)

// Dial connects to a QTP responder at addr, proposing the profile, over
// a private default-configured endpoint. It blocks until the handshake
// completes or the timeout elapses. Closing the returned connection
// releases the endpoint and its socket.
func Dial(addr string, profile core.Profile, timeout time.Duration) (*Conn, error) {
	e, err := NewEndpoint(":0", EndpointConfig{})
	if err != nil {
		return nil, err
	}
	c, err := e.Dial(addr, profile, timeout)
	if err != nil {
		e.Close()
		return nil, err
	}
	c.owner = e
	return c, nil
}

// Listen opens a default-configured accepting endpoint on addr,
// granting at most the given constraints to every inbound connection.
func Listen(addr string, constraints core.Constraints) (*Endpoint, error) {
	return NewEndpoint(addr, EndpointConfig{AcceptInbound: true, Constraints: constraints})
}
