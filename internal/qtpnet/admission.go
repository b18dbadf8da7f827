package qtpnet

import (
	"encoding/binary"
	"math"
	"net/netip"
	"time"

	"repro/internal/bufpool"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// shedRetryAfterMS is the hold-off hint stamped on load-shedding
// Retries, long enough to let an accept-queue backlog drain without
// pushing a legitimate dialer past its bounded handshake attempts.
const shedRetryAfterMS = 500

// tokenLifetime is how long a Retry's source-address token stays
// redeemable, and so the token minter's key rotation cadence: one
// challenge round trip, with room for a slow or backed-off client.
const tokenLifetime = 10 * time.Second

// tokenContext is what a source-address token binds: the client's
// address in its 16-byte mapped form, its port (big-endian) and the
// connection ID it proposed. None of it travels in the token — the
// validator rebuilds it from the datagram's actual source and the
// Connect, so a token replayed from elsewhere or for another CID fails
// its tag.
func tokenContext(from netip.AddrPort, cid uint32) (ctx [16 + 2 + 4]byte) {
	a := from.Addr().As16()
	copy(ctx[:16], a[:])
	binary.BigEndian.PutUint16(ctx[16:18], from.Port())
	binary.BigEndian.PutUint32(ctx[18:], cid)
	return ctx
}

// admitLocked decides what a first-contact Connect (one resolveLocked
// found no handshake route for) gets: a responder connection, a
// stateless Retry, or silence. The results are resolveLocked's. Callers
// hold sh.mu; from is already normalized.
func (sh *shard) admitLocked(from netip.AddrPort, cid uint32, dgram []byte) (c *Conn, isNew, shed bool) {
	if !sh.ep.cfg.AcceptInbound || sh.closed {
		return nil, false, false
	}
	// Stateless admission. Everything up to conn creation allocates
	// no state per client: a spoofed-source flood costs this endpoint one
	// handshake parse and at most one AES-GCM tag per datagram.
	var hdr packet.Header
	payload, err := hdr.Parse(dgram)
	if err != nil {
		return nil, false, false
	}
	var hs packet.Handshake
	if err := hs.Parse(payload); err != nil {
		return nil, false, false
	}
	if !sh.ep.cfg.DisableEncryption && len(hs.KeyShare) == 0 {
		// A plaintext client against an encrypted endpoint: drop it
		// statelessly. Allocating a responder would only have the state
		// machine refuse the same Connect with ErrCryptoRequired.
		sh.hsDropped.Add(1)
		return nil, false, false
	}
	validated := false
	if len(hs.Token) > 0 && sh.ep.tokens != nil {
		ctx := tokenContext(from, cid)
		if _, err := sh.ep.tokens.Open(sh.ep.tokens.NowSecs(), hs.Token, ctx[:]); err == nil {
			validated = true
		} else {
			sh.tokenInvalid.Add(1)
		}
	}
	if !validated && sh.tokenRequiredLocked() {
		sh.sendRetryLocked(from, cid, &hdr, len(dgram), 0)
		return nil, false, true
	}
	if len(sh.ep.acceptCh) >= cap(sh.ep.acceptCh) || !sh.takeAcceptTokenLocked() {
		// Saturated accept queue or exhausted admission budget: shed the
		// newest Connect statelessly with a hold-off hint rather than
		// allocating a responder that finishAccept would only abandon.
		sh.hsDropped.Add(1)
		sh.sendRetryLocked(from, cid, &hdr, len(dgram), shedRetryAfterMS)
		return nil, false, true
	}
	id := sh.allocIDLocked()
	c = newConn(sh, from, id)
	c.remoteID = cid
	c.validated.Store(validated)
	c.inner = qtp.NewConn(qtp.Config{
		Initiator:   false,
		Constraints: sh.ep.cfg.Constraints,
		LocalID:     id,
		Encrypt:     !sh.ep.cfg.DisableEncryption,
		Tickets:     sh.ep.tickets,
	})
	sh.byID[id] = c
	sh.byPeer[peerKey{from, cid}] = c
	return c, true, false
}

// tokenRequiredLocked reports whether a token-less Connect must be
// challenged: always under RequireToken, and automatically once the
// accept queue is half full — the endpoint trades one extra handshake
// round-trip for proof the queue slots go to reachable addresses.
// Callers hold sh.mu.
func (sh *shard) tokenRequiredLocked() bool {
	if sh.ep.cfg.RequireToken {
		return true
	}
	n := len(sh.ep.acceptCh)
	return n > 0 && 2*n >= cap(sh.ep.acceptCh)
}

// takeAcceptTokenLocked spends one unit of the accept-rate budget,
// reporting false when the bucket is dry. Callers hold sh.mu.
func (sh *shard) takeAcceptTokenLocked() bool {
	if sh.ep.cfg.AcceptRate <= 0 {
		return true
	}
	now := sh.now()
	if now > sh.hsLast {
		sh.hsTokens += sh.ep.cfg.AcceptRate * (now - sh.hsLast).Seconds()
		sh.hsTokens = math.Min(sh.hsTokens, sh.hsBurst)
		sh.hsLast = now
	}
	if sh.hsTokens < 1 {
		return false
	}
	sh.hsTokens--
	return true
}

// sendRetryLocked queues a stateless Retry answering a Connect of rxLen
// bytes from the given address: a fresh source-address token, plus a
// hold-off hint when shedding load. The Retry echoes the client's
// proposed CID (so its conn-ID check passes) and the Connect's
// timestamp (so it can seed an RTT sample). A Retry that would exceed
// 3x the bytes the Connect spent is suppressed — the endpoint must
// never amplify toward an unproven source, whatever the frame. Callers
// hold sh.mu and owe the scheduler a flush once it is released.
func (sh *shard) sendRetryLocked(from netip.AddrPort, cid uint32, connect *packet.Header, rxLen int, retryAfterMS uint32) {
	if sh.ep.tokens == nil {
		return
	}
	ctx := tokenContext(from, cid)
	r := packet.Retry{
		Token:        sh.ep.tokens.Mint(sh.ep.tokens.NowSecs(), nil, ctx[:]),
		RetryAfterMS: retryAfterMS,
	}
	payload, err := r.AppendTo(nil)
	hdr := packet.Header{
		Type:       packet.TypeRetry,
		ConnID:     cid,
		Timestamp:  uint32(sh.now() / time.Microsecond),
		TSEcho:     connect.Timestamp,
		PayloadLen: uint16(len(payload)),
	}
	buf := bufpool.GetChunk()
	frame := append(hdr.AppendTo(buf[:0]), payload...)
	if err != nil || len(frame) > 3*rxLen {
		sh.ampCapped.Add(1)
		bufpool.PutChunk(buf)
		return
	}
	sh.retrySent.Add(1)
	sh.tx.enqueue(from, frame, 0)
}

// finishAccept queues a just-created responder for Accept, or abandons
// it if its first frame was garbage or the backlog is full. It runs
// before the connection is first serviced, so a refused handshake never
// answers on the wire and the peer's Connect retransmission tries
// again. It reports whether the connection was kept.
func (sh *shard) finishAccept(c *Conn, err error) bool {
	c.mu.Lock()
	st := c.inner.State()
	c.mu.Unlock()
	if err != nil || st == qtp.StateIdle || st == qtp.StateClosed {
		c.teardown()
		return false
	}
	select {
	case sh.ep.acceptCh <- c:
		return true
	default:
		// The backlog filled between stateless admission and queueing —
		// rare now that saturation is shed pre-allocation, but still
		// reachable from a racing batch. Counted, and logged by qtpd -v
		// via the stats line, instead of vanishing silently.
		sh.acceptOverflow.Add(1)
		c.teardown()
		return false
	}
}
