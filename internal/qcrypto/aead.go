package qcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
)

const (
	// KeyLen is the AEAD key size (AES-256).
	KeyLen = 32
	// NonceLen is the AEAD nonce size.
	NonceLen = 12
	// TagLen is the GCM authenticator size appended to every
	// ciphertext.
	TagLen = 16
)

// ErrAuth is returned by Session.Open when the authenticator does not
// verify: the datagram was forged, corrupted, or sealed under
// different keys.
var ErrAuth = errors.New("qcrypto: message authentication failed")

// NewAEAD returns the suite's one AEAD, the standard library's
// AES-256-GCM, under a 32-byte key. It is stateless and safe for
// concurrent use; nonce discipline is the caller's job (Session never
// reuses one).
//
// Open checks the tag before it decrypts, so no plaintext is ever
// released from an unauthenticated box — but on failure it zeroes dst,
// so after a failed in-place open (dst = box[:0]) the buffer holds
// neither ciphertext nor plaintext and is dead. The error it returns
// is an unexported stdlib value; callers map it to their own.
func NewAEAD(key []byte) cipher.AEAD {
	if len(key) != KeyLen {
		panic("qcrypto: AEAD key must be 32 bytes")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // only a bad key length, excluded above
	}
	a, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // only a block size other than 16
	}
	return a
}
