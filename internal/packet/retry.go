package packet

import (
	"encoding/binary"
	"fmt"
)

// Retry TLV option types. Same count-prefixed TLV shape as Handshake so
// future fields (e.g. a new preferred address) can ride along without a
// version bump.
const (
	retryOptToken      uint8 = 1
	retryOptRetryAfter uint8 = 2
)

// Retry is the payload of a TypeRetry frame: the server's stateless
// answer to a Connect it is not willing to allocate state for. Token is
// the source-address token the client must echo in its next Connect,
// opaque to everyone but the server that minted it (qcrypto.Minter);
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
	r.Token = r.Token[:0]
	r.RetryAfterMS = 0
	err := walkTLVs(b, func(typ uint8, v []byte) error {
		switch typ {
		case retryOptToken:
			if len(v) == 0 {
				return fmt.Errorf("%w: empty retry token", ErrOption)
			}
			r.Token = append(r.Token[:0], v...)
		case retryOptRetryAfter:
			if len(v) != 4 {
				return fmt.Errorf("%w: retry-after length %d", ErrOption, len(v))
			}
			r.RetryAfterMS = binary.BigEndian.Uint32(v)
		}
		return nil
	})
	if err == nil && len(r.Token) == 0 {
		err = fmt.Errorf("%w: retry without token", ErrOption)
	}
	return err
}
