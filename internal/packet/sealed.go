package packet

import (
	"encoding/binary"
	"fmt"
)

// Sealed datagrams wrap a complete inner frame (fixed header plus
// payload) in an AEAD envelope. The cleartext prefix is deliberately
// minimal — everything a middlebox could ossify on is inside the
// ciphertext — and keeps the connection ID at the same offset as the
// plaintext header so endpoint demux reads one layout for both:
//
//	[0]     Version<<4 | TypeSealed
//	[1]     key epoch (0 = 0-RTT resumption keys; 1..255 = 1-RTT key
//	        generation g as 1 + g mod 255, see qcrypto.Session)
//	[2:4]   crypto sequence, high 16 bits (big-endian)
//	[4:8]   connection ID (big-endian; same offset as Header.ConnID)
//	[8:12]  crypto sequence, low 32 bits (big-endian)
//	[12:]   AEAD ciphertext of the inner frame, then the 16-byte tag
//
// The 48-bit crypto sequence is a per-direction, per-epoch datagram
// counter that exists only to form the AEAD nonce and replay window;
// it is unrelated to the transport's per-frame Seq, which travels
// encrypted inside. The prefix is the AEAD's additional data, so
// flipping any of it fails the tag.
const (
	// SealedHeaderLen is the cleartext prefix of a sealed datagram.
	SealedHeaderLen = 12
	// SealedTagLen is the AEAD authenticator appended to the ciphertext.
	SealedTagLen = 16
	// SealedOverhead is the total wire expansion of sealing a frame.
	SealedOverhead = SealedHeaderLen + SealedTagLen
	// MaxSealedSeq is the largest crypto sequence the 48-bit field holds.
	MaxSealedSeq = 1<<48 - 1
)

// AppendSealedHeader appends the 12-byte sealed-datagram prefix.
func AppendSealedHeader(dst []byte, connID uint32, epoch uint8, seq uint64) []byte {
	var b [SealedHeaderLen]byte
	b[0] = Version<<4 | uint8(TypeSealed)
	b[1] = epoch
	binary.BigEndian.PutUint16(b[2:4], uint16(seq>>32))
	binary.BigEndian.PutUint32(b[4:8], connID)
	binary.BigEndian.PutUint32(b[8:12], uint32(seq))
	return append(dst, b[:]...)
}

// ParseSealedHeader decodes a sealed datagram's prefix, returning the
// ciphertext (which includes the trailing tag). The smallest real
// sealed datagram wraps a bare 24-byte header, but the parser only
// demands a non-empty ciphertext so corrupted lengths fail in the AEAD
// rather than here.
func ParseSealedHeader(b []byte) (connID uint32, epoch uint8, seq uint64, box []byte, err error) {
	if len(b) < SealedOverhead {
		return 0, 0, 0, nil, ErrShort
	}
	if v := b[0] >> 4; v != Version {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	if t := Type(b[0] & 0x0f); t != TypeSealed {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d", ErrType, uint8(t))
	}
	epoch = b[1]
	seq = uint64(binary.BigEndian.Uint16(b[2:4]))<<32 | uint64(binary.BigEndian.Uint32(b[8:12]))
	connID = binary.BigEndian.Uint32(b[4:8])
	return connID, epoch, seq, b[SealedHeaderLen:], nil
}
