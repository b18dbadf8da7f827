package qcrypto

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"

	"repro/internal/packet"
)

// Key-schedule errors.
var (
	// ErrNoKeys means the datagram names an epoch this session has no
	// keys for: 0-RTT data on a connection that granted no ticket, or a
	// 1-RTT generation other than the previous, current or next one.
	ErrNoKeys = errors.New("qcrypto: no keys for epoch")
	// ErrReplay means the crypto sequence was already accepted: a
	// duplicated or replayed datagram, dropped before decryption.
	ErrReplay = errors.New("qcrypto: replayed crypto sequence")
	// ErrSeqExhausted means the 48-bit sealing sequence ran out. The
	// key update restarts the sequence every keyUpdateInterval
	// datagrams, so this is the nonce-reuse backstop, not a lifetime.
	ErrSeqExhausted = errors.New("qcrypto: sealing sequence exhausted")
)

// Epochs. The sealed prefix's epoch byte names a key generation; each
// direction+generation pair has an independent key, IV and 48-bit
// sequence space.
const (
	// Epoch0RTT seals a resuming client's first flight under keys
	// derived from a session ticket's resumption secret.
	Epoch0RTT = 0
	// Epoch1RTT is the first 1-RTT generation: keys from the fresh ECDH
	// bound to the handshake transcript. Every later byte value is a
	// generation ratcheted from it (see nextEpoch), so "epoch >=
	// Epoch1RTT" means "sealed under keys the full handshake produced".
	Epoch1RTT = 1
)

// GenerateKey returns a fresh ephemeral X25519 keypair for one
// handshake's key-share TLV.
func GenerateKey() (*ecdh.PrivateKey, error) {
	return ecdh.X25519().GenerateKey(rand.Reader)
}

// Shared runs X25519 between our ephemeral private key and the peer's
// 32-byte key-share TLV value.
func Shared(priv *ecdh.PrivateKey, peerShare []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerShare)
	if err != nil {
		return nil, err
	}
	return priv.ECDH(pub)
}

// TranscriptHash binds the key schedule to the exact handshake bytes:
// SHA-256 over the Connect payload followed by the Accept payload.
// Everything either side offered — profile TLVs, retry token, key
// shares, ticket, the 0-RTT accept bit — is inside those payloads, so
// any in-flight tampering (or token replay against a different
// handshake) diverges the keys and every subsequent datagram fails to
// open.
func TranscriptHash(connectPayload, acceptPayload []byte) []byte {
	h := sha256.New()
	h.Write(connectPayload)
	h.Write(acceptPayload)
	return h.Sum(nil)
}

// ConnectHash is the transcript prefix available before the Accept
// exists: SHA-256 of the Connect payload alone. It binds the
// resumption secret and the 0-RTT keys to the specific Connect that
// offered them.
func ConnectHash(connectPayload []byte) []byte {
	h := sha256.Sum256(connectPayload)
	return h[:]
}

// Keys is one direction's AEAD key material.
type Keys struct {
	Key [KeyLen]byte
	IV  [NonceLen]byte
}

// Extraction salts. Versioned with packet.Version so one suite's key
// material cannot collide with another's.
var (
	saltHandshake = []byte("qtp/2 handshake")
	saltEarly     = []byte("qtp/2 early")
	saltUpdate    = []byte("qtp/2 update")
)

func expandKeys(prk []byte, label string, context []byte) (k Keys) {
	info := make([]byte, 0, len(label)+len(context))
	info = append(info, label...)
	info = append(info, context...)
	okm := hkdfExpand(prk, info, KeyLen+NonceLen)
	copy(k.Key[:], okm[:KeyLen])
	copy(k.IV[:], okm[KeyLen:])
	return k
}

// SessionKeys derives both directions' 1-RTT keys from the ECDH shared
// secret and the handshake transcript hash.
func SessionKeys(shared, transcript []byte) (c2s, s2c Keys) {
	prk := hkdfExtract(saltHandshake, shared)
	return expandKeys(prk, "qtp c2s ", transcript), expandKeys(prk, "qtp s2c ", transcript)
}

// ResumptionSecret derives the secret a session ticket stores. It is
// deliberately independent of the Accept payload (the ticket rides
// inside the Accept, so the full transcript is not yet fixed when the
// ticket is minted) but still bound to the fresh ECDH output and the
// Connect that started this handshake.
func ResumptionSecret(shared, connectHash []byte) (s [KeyLen]byte) {
	prk := hkdfExtract(saltHandshake, shared)
	info := append([]byte("qtp resume "), connectHash...)
	copy(s[:], hkdfExpand(prk, info, KeyLen))
	return s
}

// EarlyKeys derives the client→server 0-RTT keys: the stored
// resumption secret bound to the hash of the new connection's Connect
// payload, so early data cannot be cut-and-pasted under a different
// handshake (a replay of the entire first flight remains possible —
// the 0-RTT caveat — which is why early data must be idempotent).
func EarlyKeys(resumptionSecret [KeyLen]byte, connectHash []byte) Keys {
	prk := hkdfExtract(saltEarly, resumptionSecret[:])
	return expandKeys(prk, "qtp 0rtt ", connectHash)
}

// keyUpdateInterval is how many datagrams one 1-RTT key generation
// seals before the sealer ratchets to the next. AES-GCM's
// confidentiality bound for packets of at most 2^11 bytes is 2^28
// datagrams per key (RFC 9001 appendix B.1.1); 2^24 stays 16x inside
// it and is about 23 GB of full-size datagrams. A constant, not a
// knob: both ends follow the epoch byte, so they need not agree on it.
const keyUpdateInterval = 1 << 24

// nextEpoch is the epoch byte of the generation after epoch: 1-RTT
// generation g travels as 1 + g mod 255, so 255 wraps to 1 and 0 stays
// reserved for 0-RTT.
func nextEpoch(epoch uint8) uint8 { return epoch%255 + 1 }

// nextKeys ratchets one direction's keys forward. The derivation is
// one-way: holding generation g+1 does not give back generation g.
func nextKeys(k Keys) Keys {
	var ikm [KeyLen + NonceLen]byte
	copy(ikm[:], k.Key[:])
	copy(ikm[KeyLen:], k.IV[:])
	return expandKeys(hkdfExtract(saltUpdate, ikm[:]), "qtp ku", nil)
}

// half is what a sealer and an opener share: one direction's AEAD for
// one epoch, the keys it was built from (the next generation derives
// from them) and the nonce scratch. cipher.AEAD is an interface, so a
// nonce on the caller's stack would escape — one allocation per
// datagram; the scratch lives here, inside the heap-resident Session.
type half struct {
	aead  cipher.AEAD // nil until keys are installed
	keys  Keys
	epoch uint8
	nonce [NonceLen]byte
}

func newHalf(epoch uint8, k Keys) half {
	return half{aead: NewAEAD(k.Key[:]), keys: k, epoch: epoch}
}

// seqNonce forms the per-datagram AEAD nonce in the scratch: the
// static IV XORed with the big-endian 48-bit crypto sequence in its
// trailing bytes. Epochs use distinct keys, so the sequence alone
// keeps nonces unique.
func (h *half) seqNonce(seq uint64) []byte {
	n := &h.nonce
	*n = h.keys.IV
	n[6] ^= byte(seq >> 40)
	n[7] ^= byte(seq >> 32)
	n[8] ^= byte(seq >> 24)
	n[9] ^= byte(seq >> 16)
	n[10] ^= byte(seq >> 8)
	n[11] ^= byte(seq)
	return n[:]
}

// sealer is one direction's sending half: the current epoch and the
// next crypto sequence in it.
type sealer struct {
	half
	seq uint64
}

// opener is one direction's receiving half for one epoch, with a
// 64-datagram sliding replay window over the crypto sequence.
type opener struct {
	half
	maxSeq uint64
	window uint64
	any    bool
}

func (o *opener) fresh(seq uint64) bool {
	if !o.any || seq > o.maxSeq {
		return true
	}
	d := o.maxSeq - seq
	return d < 64 && o.window&(1<<d) == 0
}

func (o *opener) mark(seq uint64) {
	switch {
	case !o.any:
		o.any, o.maxSeq, o.window = true, seq, 1
	case seq > o.maxSeq:
		if shift := seq - o.maxSeq; shift >= 64 {
			o.window = 1
		} else {
			o.window = o.window<<shift | 1
		}
		o.maxSeq = seq
	default:
		o.window |= 1 << (o.maxSeq - seq)
	}
}

// Session is one connection's sealing/opening state. It seals in
// exactly one epoch at a time — the newest keys installed, ratcheted
// forward every keyUpdateInterval datagrams — and opens 0-RTT
// datagrams plus three consecutive 1-RTT generations: the current one,
// the previous one (stragglers reordered across an update) and, on
// trial, the next. Each direction ratchets on its own; no frame, timer
// or call from the layers above is involved. Methods are not
// concurrency-safe; the endpoint serializes them under its per-conn
// lock, and the qtp layer installs keys under the same lock.
type Session struct {
	tx    sealer
	early opener // Epoch0RTT
	// prev is dropped at the next promotion; next is derived from cur
	// the first time a datagram names it and cached, so a flood of
	// forgeries costs one derivation per generation.
	prev, cur, next opener
}

// NewSession returns an empty session; keys arrive via SetSendKeys and
// SetRecvKeys as the handshake derives them.
func NewSession() *Session { return &Session{} }

// SetSendKeys installs sending keys for an epoch, replacing any prior
// epoch's sealer and resetting the crypto sequence (each epoch's key
// is fresh, so its nonce space starts over).
func (s *Session) SetSendKeys(epoch uint8, k Keys) {
	s.tx = sealer{half: newHalf(epoch, k)}
}

// SetRecvKeys installs receiving keys for an epoch: Epoch0RTT beside
// whatever 1-RTT keys exist, anything else as the current 1-RTT
// generation.
func (s *Session) SetRecvKeys(epoch uint8, k Keys) {
	if epoch == Epoch0RTT {
		s.early = opener{half: newHalf(epoch, k)}
		return
	}
	s.prev, s.cur, s.next = opener{}, opener{half: newHalf(epoch, k)}, opener{}
}

// CanSeal reports whether sending keys are installed.
func (s *Session) CanSeal() bool { return s != nil && s.tx.aead != nil }

// SendEpoch returns the epoch byte current sends are sealed under.
func (s *Session) SendEpoch() uint8 { return s.tx.epoch }

// SealAppend seals one inner frame into a sealed datagram appended to
// dst: 12-byte prefix, ciphertext, 16-byte tag. connID is the value
// the peer demuxes on (its ID once known, the proposed ID during a
// 0-RTT first flight). Sealing in place is allowed: frame may lie at
// exactly dst[len(dst)+packet.SealedHeaderLen:], where the ciphertext
// goes, and while dst has the capacity the datagram stays in dst's
// array. Otherwise frame must not overlap dst's spare capacity.
func (s *Session) SealAppend(dst []byte, connID uint32, frame []byte) ([]byte, error) {
	t := &s.tx
	if t.aead == nil {
		return dst, ErrNoKeys
	}
	if t.seq >= keyUpdateInterval && t.epoch != Epoch0RTT {
		*t = sealer{half: newHalf(nextEpoch(t.epoch), nextKeys(t.keys))}
	}
	// Only a 0-RTT sealer, which never ratchets, can get here.
	if t.seq > packet.MaxSealedSeq {
		return dst, ErrSeqExhausted
	}
	seq := t.seq
	t.seq++
	start := len(dst)
	dst = packet.AppendSealedHeader(dst, connID, t.epoch, seq)
	return t.aead.Seal(dst, t.seqNonce(seq), frame, dst[start:]), nil
}

// Open authenticates and decrypts a sealed datagram in place,
// returning a view of the inner frame (aliasing dgram's ciphertext
// bytes) and the epoch byte it was sealed under. Epochs without keys
// and replayed sequences are rejected before any crypto, leaving dgram
// untouched. No plaintext is ever released from a datagram that fails
// authentication, but the failed open wipes its ciphertext: after
// ErrAuth dgram is dead and must be dropped, not retried.
func (s *Session) Open(dgram []byte) (frame []byte, epoch uint8, err error) {
	_, epoch, seq, box, err := packet.ParseSealedHeader(dgram)
	if err != nil {
		return nil, 0, err
	}
	o := s.opener(epoch)
	if o == nil {
		return nil, epoch, ErrNoKeys
	}
	if !o.fresh(seq) {
		return nil, epoch, ErrReplay
	}
	frame, err = o.aead.Open(box[:0], o.seqNonce(seq), box, dgram[:packet.SealedHeaderLen])
	if err != nil {
		return nil, epoch, ErrAuth
	}
	o.mark(seq)
	if o == &s.next {
		// The peer's sealer has moved on, and proved it.
		s.prev, s.cur, s.next = s.cur, s.next, opener{}
	}
	return frame, epoch, nil
}

// opener returns the receive keys an epoch byte names, nil if this
// session holds none.
func (s *Session) opener(epoch uint8) *opener {
	var o *opener
	switch {
	case epoch == Epoch0RTT:
		o = &s.early
	case epoch == s.cur.epoch:
		o = &s.cur
	case epoch == s.prev.epoch:
		o = &s.prev
	case s.cur.aead != nil && epoch == nextEpoch(s.cur.epoch):
		if s.next.aead == nil {
			s.next = opener{half: newHalf(epoch, nextKeys(s.cur.keys))}
		}
		o = &s.next
	}
	if o == nil || o.aead == nil {
		return nil
	}
	return o
}
