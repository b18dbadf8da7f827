package qtp

import (
	"bytes"
	"crypto/ecdh"
	"errors"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qcrypto"
)

// Crypto handshake errors. Both are terminal: the connection moves to
// StateClosed, because continuing in plaintext is exactly the
// downgrade the always-on design exists to prevent.
var (
	// ErrCryptoRequired means encryption is on and the peer's handshake
	// carried no key share — an unencrypted peer, or a middlebox that
	// stripped the TLV hoping for a plaintext fallback.
	ErrCryptoRequired = errors.New("qtp: encryption required but handshake carries no key share")
	// ErrResumeProfile means a 0-RTT resume was attempted but the server
	// negotiated a different profile than the ticket was minted for; the
	// machines built at Start don't match, so the attempt aborts and the
	// dialer should retry cold.
	ErrResumeProfile = errors.New("qtp: negotiated profile differs from 0-RTT resumption profile")
)

// cryptoState is a connection's key-schedule state. The sans-IO state
// machine owns key derivation and the handshake TLVs; the driver owns
// sealing and opening datagrams with the Session it exposes.
type cryptoState struct {
	enabled bool
	priv    *ecdh.PrivateKey // initiator's ephemeral key, until the Accept arrives
	sess    *qcrypto.Session

	early         bool // initiator: 0-RTT armed at Start
	earlyOffered  bool // a ticket was sent (initiator) / received (responder)
	earlyAccepted bool // the responder opened the 0-RTT epoch
	ticketIssued  bool // responder minted a ticket into its Accept

	newResumption *qcrypto.Resumption // initiator: harvested from the Accept
}

// CryptoInfo is a snapshot of a connection's handshake-crypto facts,
// consumed by the endpoint for its Stats counters.
type CryptoInfo struct {
	Enabled       bool
	TicketIssued  bool
	EarlyOffered  bool
	EarlyAccepted bool
}

// CryptoEnabled reports whether this connection runs the encrypted
// handshake (all frames except Connect/Accept/Retry travel sealed).
func (c *Conn) CryptoEnabled() bool { return c.cr.enabled }

// CryptoSession returns the connection's sealing/opening state, nil
// until key material exists (a responder has keys after the Connect, a
// cold initiator only after the Accept, a resuming initiator
// immediately). The driver calls it under the same lock it serializes
// HandleFrame with.
func (c *Conn) CryptoSession() *qcrypto.Session {
	if !c.cr.enabled || c.cr.sess == nil || !c.cr.sess.CanSeal() {
		return nil
	}
	return c.cr.sess
}

// CryptoInfo returns the handshake-crypto snapshot for stats.
func (c *Conn) CryptoInfo() CryptoInfo {
	return CryptoInfo{
		Enabled:       c.cr.enabled,
		TicketIssued:  c.cr.ticketIssued,
		EarlyOffered:  c.cr.earlyOffered,
		EarlyAccepted: c.cr.earlyAccepted,
	}
}

// TakeResumption hands over the resumption state harvested from the
// server's Accept (ticket + locally derived secret + negotiated
// profile), or nil if none was granted. Single-shot: the driver caches
// it for the next Dial to the same server.
func (c *Conn) TakeResumption() *qcrypto.Resumption {
	r := c.cr.newResumption
	c.cr.newResumption = nil
	return r
}

// profileBytes is the canonical handshake encoding of a profile's
// negotiated parameters (no connection ID, token, or crypto TLVs).
// Tickets pin it so 0-RTT only resumes under the exact profile the
// keys were derived for, and the resume path byte-compares it.
func profileBytes(p core.Profile) []byte {
	hs := p.Handshake()
	b, _ := hs.AppendTo(nil)
	return b
}

// startCrypto runs at Start on an encrypted initiator: generate the
// ephemeral key share and decide whether resumption state matches the
// proposed profile, in which case Start arms 0-RTT.
func (c *Conn) startCrypto() error {
	c.cr.enabled = true
	priv, err := qcrypto.GenerateKey()
	if err != nil {
		return err
	}
	c.cr.priv = priv
	c.cr.sess = qcrypto.NewSession()
	if r := c.cfg.Resume; r != nil && len(r.Ticket) > 0 &&
		bytes.Equal(r.Profile, profileBytes(c.profile)) {
		c.cr.early = true
		c.cr.earlyOffered = true
	}
	return nil
}

// handshakeBase is what both handshake payloads start from: the
// profile's handshake, plus the ID the peer should stamp on frames to
// us unless it is the one the peer already uses (symmetric legacy
// framing).
func (c *Conn) handshakeBase() packet.Handshake {
	hs := c.profile.Handshake()
	if c.localID != c.remoteID {
		hs.ConnID = c.localID
	}
	return hs
}

// pinConnect pins the Connect payload: the base, the source-address
// token a Retry handed us (so the retried Connect passes address
// validation), and when encrypted the key share and any 0-RTT ticket.
// Called at Start and again from onRetry, whose token changes the
// payload. On an encrypted connection it also (re)derives the 0-RTT
// sending keys bound to the payload's hash: early data already in
// flight dies with the old keys and is recovered by reliability under
// epoch 1.
func (c *Conn) pinConnect() {
	hs := c.handshakeBase()
	hs.Token = c.token
	if c.cr.enabled {
		hs.KeyShare = c.cr.priv.PublicKey().Bytes()
		if c.cr.early {
			hs.Ticket = c.cfg.Resume.Ticket
		}
	}
	c.connectPayload, _ = hs.AppendTo(nil)
	if c.cr.early {
		c.cr.sess.SetSendKeys(qcrypto.Epoch0RTT,
			qcrypto.EarlyKeys(c.cfg.Resume.Secret, qcrypto.ConnectHash(c.connectPayload)))
	}
}

// acceptCrypto runs once on an encrypted responder when the Connect
// that creates state arrives: run ECDH, redeem any 0-RTT ticket, mint
// a fresh ticket, pin the Accept payload (the base plus these crypto
// TLVs, so the transcript is fixed), and install 1-RTT keys. The
// responder can seal immediately — its first sealed frames may leave
// before the client's Confirm.
func (c *Conn) acceptCrypto(hs *packet.Handshake, connectPayload []byte) error {
	c.cr.enabled = true
	priv, err := qcrypto.GenerateKey()
	if err != nil {
		return err
	}
	shared, err := qcrypto.Shared(priv, hs.KeyShare)
	if err != nil {
		return err
	}
	c.cr.sess = qcrypto.NewSession()
	c.connectPayload = append([]byte(nil), connectPayload...)
	connectHash := qcrypto.ConnectHash(c.connectPayload)
	profile := profileBytes(c.profile)

	ahs := c.handshakeBase()
	ahs.KeyShare = priv.PublicKey().Bytes()

	// 0-RTT redemption: the ticket must open under the minter's keys and
	// must have been minted for the profile this handshake negotiated —
	// the early keys assume that machine composition.
	if len(hs.Ticket) > 0 && c.cfg.Tickets != nil {
		c.cr.earlyOffered = true
		secret, tkProfile, err := qcrypto.OpenTicket(c.cfg.Tickets, hs.Ticket)
		if err == nil && bytes.Equal(tkProfile, profile) {
			c.cr.sess.SetRecvKeys(qcrypto.Epoch0RTT, qcrypto.EarlyKeys(secret, connectHash))
			c.cr.earlyAccepted = true
			ahs.EarlyAccept = true
		}
	}

	// Mint the next connection's ticket around this connection's
	// resumption secret. Derived from the Connect hash only — the
	// ticket rides inside the Accept, so the full transcript does not
	// exist yet.
	if c.cfg.Tickets != nil {
		secret := qcrypto.ResumptionSecret(shared, connectHash)
		if tk := qcrypto.MintTicket(c.cfg.Tickets, secret, profile); tk != nil {
			ahs.Ticket = tk
			c.cr.ticketIssued = true
		}
	}

	if c.acceptPayload, err = ahs.AppendTo(nil); err != nil {
		return err
	}
	c2s, s2c := qcrypto.SessionKeys(shared, qcrypto.TranscriptHash(c.connectPayload, c.acceptPayload))
	c.cr.sess.SetSendKeys(qcrypto.Epoch1RTT, s2c)
	c.cr.sess.SetRecvKeys(qcrypto.Epoch1RTT, c2s)
	return nil
}

// completeCrypto runs once on an encrypted initiator when the Accept
// arrives: verify the key share survived (downgrade check), run ECDH,
// install 1-RTT keys bound to the full transcript, and harvest the
// resumption state for the next connection.
func (c *Conn) completeCrypto(hs *packet.Handshake, acceptPayload []byte) error {
	if len(hs.KeyShare) == 0 {
		return ErrCryptoRequired
	}
	shared, err := qcrypto.Shared(c.cr.priv, hs.KeyShare)
	if err != nil {
		return err
	}
	c.acceptPayload = append([]byte(nil), acceptPayload...)
	c2s, s2c := qcrypto.SessionKeys(shared, qcrypto.TranscriptHash(c.connectPayload, c.acceptPayload))
	c.cr.sess.SetSendKeys(qcrypto.Epoch1RTT, c2s)
	c.cr.sess.SetRecvKeys(qcrypto.Epoch1RTT, s2c)
	c.cr.earlyAccepted = hs.EarlyAccept
	if len(hs.Ticket) > 0 {
		c.cr.newResumption = &qcrypto.Resumption{
			Ticket:  append([]byte(nil), hs.Ticket...),
			Secret:  qcrypto.ResumptionSecret(shared, qcrypto.ConnectHash(c.connectPayload)),
			Profile: profileBytes(core.ProfileFromHandshake(*hs)),
		}
	}
	c.cr.priv = nil
	return nil
}

// sendActive reports whether the data plane may transmit: established,
// or still connecting with 0-RTT armed (the whole point of resumption
// is data in the first flight).
func (c *Conn) sendActive() bool {
	return c.state == StateEstablished || (c.state == StateConnecting && c.cr.early)
}
