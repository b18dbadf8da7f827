package packet

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"
)

// TokenLen is the wire length of a source-address token:
// key id (1) + coarse timestamp (4) + client CID (4) + truncated MAC (16).
const TokenLen = 1 + 4 + 4 + tokenMACLen

const tokenMACLen = 16

// Token validation errors. All of them mean "treat the Connect as
// token-less"; the split exists so counters and tests can tell a stale
// token (normal under churn) from a forged or corrupt one.
var (
	ErrTokenCorrupt = errors.New("packet: token corrupt or truncated")
	ErrTokenExpired = errors.New("packet: token expired")
	ErrTokenKey     = errors.New("packet: token key rotated out")
	ErrTokenMAC     = errors.New("packet: token MAC mismatch")
)

// TokenMinter mints and validates the HMAC source-address tokens carried
// by Retry frames and echoed in Connect handshakes. A token binds the
// client's address, its proposed connection ID, and a coarse mint time;
// the address is not carried on the wire — the validator recomputes the
// MAC from the datagram's actual source, so a token replayed from a
// different address simply fails to verify. Minting and validating are
// both stateless per client, which is the whole point: a spoofed-source
// Connect flood costs the server one HMAC per datagram and zero memory.
//
// Keys rotate lazily on the mint path every lifetime interval, and
// validation accepts the current and previous key, so every token stays
// verifiable for its full lifetime across a rotation edge. Timestamps
// are seconds on the minter's own monotonic clock (NowSecs) — tokens are
// minted and validated by the same process, so no wall clock is needed.
//
// A minter is safe for concurrent use and is shared by all shards of a
// qtpnet Endpoint so a token minted by one shard validates on another.
type TokenMinter struct {
	lifetime uint32 // token validity and key rotation cadence, seconds
	epoch    time.Time

	mu    sync.RWMutex
	keyID uint8
	keyAt uint32 // NowSecs when the current key was installed
	cur   [32]byte
	prev  [32]byte
}

// NewTokenMinter creates a minter with fresh random keys. Tokens are
// valid for lifetime (rounded up to a whole second, default 10s when
// zero or negative), which is also the key rotation cadence.
func NewTokenMinter(lifetime time.Duration) *TokenMinter {
	secs := uint32((lifetime + time.Second - 1) / time.Second)
	if secs == 0 {
		secs = 10
	}
	m := &TokenMinter{lifetime: secs, epoch: time.Now()}
	if _, err := rand.Read(m.cur[:]); err != nil {
		panic(fmt.Sprintf("packet: token key: %v", err))
	}
	if _, err := rand.Read(m.prev[:]); err != nil {
		panic(fmt.Sprintf("packet: token key: %v", err))
	}
	return m
}

// NowSecs is the minter's coarse clock: whole seconds since creation.
func (m *TokenMinter) NowSecs() uint32 {
	return uint32(time.Since(m.epoch) / time.Second)
}

// Lifetime reports the token validity window in whole seconds.
func (m *TokenMinter) Lifetime() uint32 { return m.lifetime }

// Mint appends a token for the given client address and proposed
// connection ID to dst and returns the result. Rotates the key first
// when the current one has reached its lifetime.
func (m *TokenMinter) Mint(nowSecs uint32, addr netip.AddrPort, cid uint32, dst []byte) []byte {
	m.mu.Lock()
	if nowSecs-m.keyAt >= m.lifetime {
		m.rotateLocked(nowSecs)
	}
	keyID, key := m.keyID, m.cur
	m.mu.Unlock()

	var fixed [1 + 4 + 4]byte
	fixed[0] = keyID
	binary.BigEndian.PutUint32(fixed[1:5], nowSecs)
	binary.BigEndian.PutUint32(fixed[5:9], cid)
	dst = append(dst, fixed[:]...)
	return append(dst, tokenMAC(&key, nowSecs, addr, cid)...)
}

// Validate checks a token received from addr on a Connect proposing cid.
// It accepts tokens minted under the current or previous key whose age
// is within the lifetime. A nil error means the address is validated.
func (m *TokenMinter) Validate(nowSecs uint32, addr netip.AddrPort, cid uint32, token []byte) error {
	if len(token) != TokenLen {
		return ErrTokenCorrupt
	}
	ts := binary.BigEndian.Uint32(token[1:5])
	if int64(nowSecs)-int64(ts) > int64(m.lifetime) || ts > nowSecs {
		return ErrTokenExpired
	}
	if binary.BigEndian.Uint32(token[5:9]) != cid {
		return ErrTokenMAC
	}
	m.mu.RLock()
	var key [32]byte
	switch token[0] {
	case m.keyID:
		key = m.cur
	case m.keyID - 1:
		key = m.prev
	default:
		m.mu.RUnlock()
		return ErrTokenKey
	}
	m.mu.RUnlock()
	if !hmac.Equal(tokenMAC(&key, ts, addr, cid), token[9:]) {
		return ErrTokenMAC
	}
	return nil
}

// Rotate forces a key rotation (current becomes previous, a fresh
// random key becomes current). The mint path rotates lazily on the same
// schedule; this exists for operators and tests.
func (m *TokenMinter) Rotate(nowSecs uint32) {
	m.mu.Lock()
	m.rotateLocked(nowSecs)
	m.mu.Unlock()
}

func (m *TokenMinter) rotateLocked(nowSecs uint32) {
	m.prev = m.cur
	if _, err := rand.Read(m.cur[:]); err != nil {
		panic(fmt.Sprintf("packet: token key: %v", err))
	}
	m.keyID++
	m.keyAt = nowSecs
}

// tokenMAC computes the truncated HMAC over everything a token binds:
// mint time, client address (16-byte mapped form + port), and the
// client's proposed connection ID.
func tokenMAC(key *[32]byte, ts uint32, addr netip.AddrPort, cid uint32) []byte {
	var msg [4 + 16 + 2 + 4]byte
	binary.BigEndian.PutUint32(msg[0:4], ts)
	a16 := addr.Addr().As16()
	copy(msg[4:20], a16[:])
	binary.BigEndian.PutUint16(msg[20:22], addr.Port())
	binary.BigEndian.PutUint32(msg[22:26], cid)
	mac := hmac.New(sha256.New, key[:])
	mac.Write(msg[:])
	return mac.Sum(nil)[:tokenMACLen]
}

// Retry TLV option types. Same count-prefixed TLV shape as Handshake so
// future fields (e.g. a new preferred address) can ride along without a
// version bump.
const (
	retryOptToken      uint8 = 1
	retryOptRetryAfter uint8 = 2
)

// Retry is the payload of a TypeRetry frame: the server's stateless
// answer to a Connect it is not willing to allocate state for. Token is
// the source-address token the client must echo in its next Connect;
// RetryAfterMS, when nonzero, asks the client to hold off that long
// (the load-shedding hint).
type Retry struct {
	Token        []byte
	RetryAfterMS uint32
}

// AppendTo appends the encoded retry payload to dst and returns the result.
func (r *Retry) AppendTo(dst []byte) ([]byte, error) {
	if len(r.Token) == 0 || len(r.Token) > 255 {
		return dst, fmt.Errorf("%w: retry token length %d", ErrOption, len(r.Token))
	}
	count := byte(1)
	if r.RetryAfterMS != 0 {
		count++
	}
	dst = append(dst, count)
	dst = append(dst, retryOptToken, uint8(len(r.Token)))
	dst = append(dst, r.Token...)
	if r.RetryAfterMS != 0 {
		dst = append(dst, retryOptRetryAfter, 4)
		dst = binary.BigEndian.AppendUint32(dst, r.RetryAfterMS)
	}
	return dst, nil
}

// Parse decodes a retry payload. Unknown options are skipped. A payload
// with no token is rejected: a Retry that cannot validate anything is
// meaningless and parsing it as empty would let an off-path attacker
// reset the client's retry timer with a trivial forgery.
func (r *Retry) Parse(b []byte) error {
	if len(b) < 1 {
		return ErrShort
	}
	n := int(b[0])
	b = b[1:]
	r.Token = r.Token[:0]
	r.RetryAfterMS = 0
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return ErrOption
		}
		typ, ln := b[0], int(b[1])
		if len(b) < 2+ln {
			return ErrOption
		}
		v := b[2 : 2+ln]
		switch typ {
		case retryOptToken:
			if ln == 0 {
				return fmt.Errorf("%w: empty retry token", ErrOption)
			}
			r.Token = append(r.Token[:0], v...)
		case retryOptRetryAfter:
			if ln != 4 {
				return fmt.Errorf("%w: retry-after length %d", ErrOption, ln)
			}
			r.RetryAfterMS = binary.BigEndian.Uint32(v)
		default:
			// Unknown option: skip.
		}
		b = b[2+ln:]
	}
	if len(r.Token) == 0 {
		return fmt.Errorf("%w: retry without token", ErrOption)
	}
	return nil
}
