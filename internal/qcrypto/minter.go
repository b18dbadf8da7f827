package qcrypto

import (
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Blob errors. All of them mean "treat the blob as absent"; the split
// exists so tests can tell a stale blob (routine under churn) from a
// corrupt one. A blob whose tag does not verify — forged, tampered
// with, minted by another server, or opened under the wrong context —
// is ErrAuth.
var (
	ErrBlobCorrupt = errors.New("qcrypto: blob corrupt or truncated")
	ErrBlobExpired = errors.New("qcrypto: blob expired")
	ErrBlobKey     = errors.New("qcrypto: blob key rotated out")
)

const (
	// blobHdrLen is the cleartext blob prefix: key id (1), coarse mint
	// time (4), AEAD nonce (12).
	blobHdrLen = 1 + 4 + NonceLen

	// BlobOverhead is what Mint adds to a body: the prefix and the tag.
	// A retry token, whose body is empty, is exactly this long.
	BlobOverhead = blobHdrLen + TagLen

	// maxTicketBody caps a ticket's sealed body so a ticket always fits
	// the 255-byte handshake TLV limit.
	maxTicketBody = 255 - BlobOverhead
)

// TicketLifetime is how long a minted session ticket stays redeemable.
// Ten minutes suits reconnect-heavy clients while bounding the 0-RTT
// replay and forward-secrecy exposure of any one resumption secret.
const TicketLifetime = 10 * time.Minute

// Minter seals and opens server-local blobs: bytes a server hands a
// client only to get them back later, so no one but the minting process
// ever reads them. A blob is
//
//	key ID (1) | mint time, s (4) | nonce (12) | AEAD(body) | tag (16)
//
// and its additional data is the 5-byte prefix followed by a context
// the caller rebuilds on both sides and never sends. A source-address
// token is a blob with an empty body whose context is the client's
// address, port and proposed connection ID; a session ticket seals a
// resumption secret and a profile with no context. The server holds no
// per-client state for either: opening is check age, pick key, verify.
//
// Keys rotate lazily on the mint path every lifetime interval, and
// opening accepts the current and previous key, so a blob stays
// openable for its full lifetime across a rotation edge. Timestamps are
// seconds on the minter's own monotonic clock (NowSecs); blobs are
// minted and opened by the same process, so no wall clock is involved.
// The nonce is random: a key rotates every lifetime, long before GCM's
// 2^32 random-nonce budget.
//
// A minter is safe for concurrent use and is shared by all shards of an
// endpoint, so a blob minted by one shard opens on another.
type Minter struct {
	lifetime uint32 // blob validity and key rotation cadence, seconds
	epoch    time.Time

	mu    sync.RWMutex
	keyID uint8
	keyAt uint32 // NowSecs when the current key was installed
	cur   cipher.AEAD
	prev  cipher.AEAD
}

// NewMinter creates a minter with fresh random keys. Blobs are valid
// for lifetime (truncated to whole seconds), which is also the key
// rotation cadence.
func NewMinter(lifetime time.Duration) *Minter {
	return &Minter{
		lifetime: uint32(lifetime / time.Second),
		epoch:    time.Now(),
		cur:      randomAEAD(),
		prev:     randomAEAD(),
	}
}

func randomAEAD() cipher.AEAD {
	var k [KeyLen]byte
	if _, err := rand.Read(k[:]); err != nil {
		panic(fmt.Sprintf("qcrypto: minter key: %v", err))
	}
	return NewAEAD(k[:])
}

// NowSecs is the minter's coarse clock: whole seconds since creation.
func (m *Minter) NowSecs() uint32 {
	return uint32(time.Since(m.epoch) / time.Second)
}

// Lifetime reports the blob validity window in whole seconds.
func (m *Minter) Lifetime() uint32 { return m.lifetime }

// Mint seals body into a fresh blob bound to context. Rotates the key
// first when the current one has reached its lifetime.
func (m *Minter) Mint(nowSecs uint32, body, context []byte) []byte {
	m.mu.Lock()
	if nowSecs-m.keyAt >= m.lifetime {
		m.rotateLocked(nowSecs)
	}
	keyID, key := m.keyID, m.cur
	m.mu.Unlock()

	b := make([]byte, blobHdrLen, BlobOverhead+len(body))
	b[0] = keyID
	binary.BigEndian.PutUint32(b[1:5], nowSecs)
	if _, err := rand.Read(b[5:blobHdrLen]); err != nil {
		panic(fmt.Sprintf("qcrypto: minter nonce: %v", err))
	}
	return key.Seal(b, b[5:blobHdrLen], body, append(b[:5:5], context...))
}

// Open verifies a blob under context and returns its body. It accepts
// blobs minted under the current or previous key whose age is within
// the lifetime; a nil error means the blob is authentic and fresh.
func (m *Minter) Open(nowSecs uint32, blob, context []byte) ([]byte, error) {
	if len(blob) < BlobOverhead {
		return nil, ErrBlobCorrupt
	}
	mint := binary.BigEndian.Uint32(blob[1:5])
	if int64(nowSecs)-int64(mint) > int64(m.lifetime) || mint > nowSecs {
		return nil, ErrBlobExpired
	}
	m.mu.RLock()
	var key cipher.AEAD
	switch blob[0] {
	case m.keyID:
		key = m.cur
	case m.keyID - 1:
		key = m.prev
	}
	m.mu.RUnlock()
	if key == nil {
		return nil, ErrBlobKey
	}
	body, err := key.Open(nil, blob[5:blobHdrLen], blob[blobHdrLen:], append(blob[:5:5], context...))
	if err != nil {
		return nil, ErrAuth
	}
	return body, nil
}

// Rotate forces a key rotation (current becomes previous, a fresh
// random key becomes current). The mint path rotates lazily on the same
// schedule; this exists for operators and tests.
func (m *Minter) Rotate(nowSecs uint32) {
	m.mu.Lock()
	m.rotateLocked(nowSecs)
	m.mu.Unlock()
}

func (m *Minter) rotateLocked(nowSecs uint32) {
	m.prev = m.cur
	m.cur = randomAEAD()
	m.keyID++
	m.keyAt = nowSecs
}

// MintTicket seals a resumption secret and the negotiated profile's
// handshake encoding into a session ticket, the blob that enables 0-RTT
// resumption. Returns nil (mint nothing, skip the TLV) when the profile
// encoding is too large for the TLV budget. Redeeming is open, then
// compare profile; a ticket replayed within its lifetime opens again,
// which is why early data must be idempotent (docs/SECURITY.md).
func MintTicket(m *Minter, secret [KeyLen]byte, profile []byte) []byte {
	if KeyLen+len(profile) > maxTicketBody {
		return nil
	}
	return m.Mint(m.NowSecs(), append(secret[:], profile...), nil)
}

// OpenTicket redeems a ticket minted by MintTicket on m, returning the
// sealed resumption secret and profile encoding.
func OpenTicket(m *Minter, ticket []byte) (secret [KeyLen]byte, profile []byte, err error) {
	body, err := m.Open(m.NowSecs(), ticket, nil)
	if err == nil && len(body) < KeyLen {
		err = ErrBlobCorrupt
	}
	if err != nil {
		return secret, nil, err
	}
	copy(secret[:], body)
	return secret, body[KeyLen:], nil
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
