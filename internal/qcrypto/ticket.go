package qcrypto

import (
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Ticket validation errors. The split mirrors the retry-token errors:
// stale tickets are routine under churn (the connection simply falls
// back to a cold 1-RTT handshake), forged or corrupt ones are not.
var (
	ErrTicketCorrupt = errors.New("qcrypto: ticket corrupt or truncated")
	ErrTicketExpired = errors.New("qcrypto: ticket expired")
	ErrTicketKey     = errors.New("qcrypto: ticket key rotated out")
)

const (
	// ticketHdrLen is the cleartext ticket prefix: key id (1), coarse
	// mint time (4), AEAD nonce (12). The prefix is the AEAD's
	// additional data, so none of it can be tampered with.
	ticketHdrLen = 1 + 4 + NonceLen

	// maxTicketBody caps the sealed payload so a ticket always fits the
	// 255-byte handshake TLV limit.
	maxTicketBody = 255 - ticketHdrLen - TagLen
)

// TicketStore mints and opens the encrypted session tickets that
// enable 0-RTT resumption. A ticket seals the connection's resumption
// secret together with the negotiated profile's handshake encoding;
// the server holds no per-client state — redeeming is decrypt, check
// age, compare profile. Statelessness is also the 0-RTT replay caveat:
// the same ticket replayed within its lifetime opens again, which is
// why early data must be idempotent (docs/SECURITY.md).
//
// Keys rotate lazily on the mint path every lifetime interval and
// opening accepts the current and previous key, so a ticket stays
// redeemable for its full lifetime across a rotation edge. Timestamps
// are seconds on the store's own monotonic clock (NowSecs); tickets
// are minted and opened by the same process, so no wall clock is
// involved. Like the retry-token minter, one store is shared by all
// shards of a sharded endpoint.
type TicketStore struct {
	lifetime uint32 // ticket validity and key rotation cadence, seconds
	epoch    time.Time

	mu    sync.RWMutex
	keyID uint8
	keyAt uint32
	cur   cipher.AEAD
	prev  cipher.AEAD
}

// DefaultTicketLifetime is how long a minted session ticket stays
// redeemable unless the endpoint configures otherwise. Ten minutes
// suits reconnect-heavy clients while bounding the 0-RTT replay and
// forward-secrecy exposure of any one resumption secret.
const DefaultTicketLifetime = 10 * time.Minute

// NewTicketStore creates a store with fresh random keys. Tickets are
// valid for lifetime (rounded up to a whole second,
// DefaultTicketLifetime when zero or negative), which is also the key
// rotation cadence.
func NewTicketStore(lifetime time.Duration) *TicketStore {
	if lifetime <= 0 {
		lifetime = DefaultTicketLifetime
	}
	secs := uint32((lifetime + time.Second - 1) / time.Second)
	return &TicketStore{
		lifetime: secs,
		epoch:    time.Now(),
		cur:      randomAEAD(),
		prev:     randomAEAD(),
	}
}

func randomAEAD() cipher.AEAD {
	var k [KeyLen]byte
	if _, err := rand.Read(k[:]); err != nil {
		panic(fmt.Sprintf("qcrypto: ticket key: %v", err))
	}
	return NewAEAD(k[:])
}

// NowSecs is the store's coarse clock: whole seconds since creation.
func (ts *TicketStore) NowSecs() uint32 {
	return uint32(time.Since(ts.epoch) / time.Second)
}

// Lifetime reports the ticket validity window in whole seconds.
func (ts *TicketStore) Lifetime() uint32 { return ts.lifetime }

// Mint seals a resumption secret and the negotiated profile's
// handshake encoding into a ticket. Returns nil (mint nothing, skip
// the TLV) when the profile encoding is too large for the TLV budget.
func (ts *TicketStore) Mint(nowSecs uint32, secret [KeyLen]byte, profile []byte) []byte {
	if KeyLen+len(profile) > maxTicketBody {
		return nil
	}
	ts.mu.Lock()
	if nowSecs-ts.keyAt >= ts.lifetime {
		ts.rotateLocked(nowSecs)
	}
	keyID, key := ts.keyID, ts.cur
	ts.mu.Unlock()

	t := make([]byte, ticketHdrLen, ticketHdrLen+KeyLen+len(profile)+TagLen)
	t[0] = keyID
	t[1] = byte(nowSecs >> 24)
	t[2] = byte(nowSecs >> 16)
	t[3] = byte(nowSecs >> 8)
	t[4] = byte(nowSecs)
	if _, err := rand.Read(t[5:ticketHdrLen]); err != nil {
		panic(fmt.Sprintf("qcrypto: ticket nonce: %v", err))
	}
	body := make([]byte, 0, KeyLen+len(profile))
	body = append(body, secret[:]...)
	body = append(body, profile...)
	return key.Seal(t, t[5:ticketHdrLen], body, t[:5])
}

// Open redeems a ticket: verifies, decrypts, and returns the sealed
// resumption secret and profile encoding. A nil error means the ticket
// is authentic and within its lifetime.
func (ts *TicketStore) Open(nowSecs uint32, ticket []byte) (secret [KeyLen]byte, profile []byte, err error) {
	if len(ticket) < ticketHdrLen+KeyLen+TagLen {
		return secret, nil, ErrTicketCorrupt
	}
	mint := uint32(ticket[1])<<24 | uint32(ticket[2])<<16 | uint32(ticket[3])<<8 | uint32(ticket[4])
	if int64(nowSecs)-int64(mint) > int64(ts.lifetime) || mint > nowSecs {
		return secret, nil, ErrTicketExpired
	}
	ts.mu.RLock()
	var key cipher.AEAD
	switch ticket[0] {
	case ts.keyID:
		key = ts.cur
	case ts.keyID - 1:
		key = ts.prev
	default:
		ts.mu.RUnlock()
		return secret, nil, ErrTicketKey
	}
	ts.mu.RUnlock()
	body, err := key.Open(nil, ticket[5:ticketHdrLen], ticket[ticketHdrLen:], ticket[:5])
	if err != nil {
		return secret, nil, ErrTicketCorrupt
	}
	copy(secret[:], body[:KeyLen])
	return secret, body[KeyLen:], nil
}

// Rotate forces a key rotation (current becomes previous, a fresh
// random key becomes current). The mint path rotates lazily on the
// same schedule; this exists for operators and tests.
func (ts *TicketStore) Rotate(nowSecs uint32) {
	ts.mu.Lock()
	ts.rotateLocked(nowSecs)
	ts.mu.Unlock()
}

func (ts *TicketStore) rotateLocked(nowSecs uint32) {
	ts.prev = ts.cur
	ts.cur = randomAEAD()
	ts.keyID++
	ts.keyAt = nowSecs
}

// Resumption is the client-side state harvested from one completed
// handshake that arms 0-RTT on the next connection to the same server:
// the server's opaque ticket, the locally derived resumption secret it
// seals, and the negotiated profile's handshake encoding (0-RTT is
// only attempted when the new connection proposes the same profile).
type Resumption struct {
	Ticket  []byte
	Secret  [KeyLen]byte
	Profile []byte
}
