package packet_test

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/qcrypto"
)

var tokAddr = netip.MustParseAddrPort("192.0.2.10:4433")

// tokenCtx builds the context a source-address token is bound to, the
// same bytes qtpnet's tokenContext builds: the 16-byte mapped address,
// the big-endian port and the proposed connection ID. None of it
// travels in the token.
func tokenCtx(from netip.AddrPort, cid uint32) []byte {
	a := from.Addr().As16()
	ctx := binary.BigEndian.AppendUint16(a[:], from.Port())
	return binary.BigEndian.AppendUint32(ctx, cid)
}

// TestTokenLifecycle is the table-driven sweep over everything the token
// in a Connect or Retry binds and everything an attacker can do to one:
// expiry, key rotation across the two-key window, wrong source address
// or port (replay from elsewhere), wrong connection ID, truncation, and
// bit corruption. A token is an empty-body qcrypto blob, 33 bytes.
func TestTokenLifecycle(t *testing.T) {
	const cid = 0xabc1234
	cases := []struct {
		name string
		// mutate receives a freshly minted token plus the minter and
		// returns (token, nowSecs, addr, cid) to open it with.
		mutate func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32)
		want   error
	}{
		{"valid", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok, 100, tokAddr, cid
		}, nil},
		{"valid at lifetime edge", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok, 100 + m.Lifetime(), tokAddr, cid
		}, nil},
		{"expired", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok, 100 + m.Lifetime() + 1, tokAddr, cid
		}, qcrypto.ErrBlobExpired},
		{"future timestamp", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok, 99, tokAddr, cid
		}, qcrypto.ErrBlobExpired},
		{"survives one rotation", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			m.Rotate(101)
			return tok, 102, tokAddr, cid
		}, nil},
		{"dead after two rotations", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			m.Rotate(101)
			m.Rotate(102)
			return tok, 103, tokAddr, cid
		}, qcrypto.ErrBlobKey},
		{"replayed from another address", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok, 100, netip.MustParseAddrPort("192.0.2.11:4433"), cid
		}, qcrypto.ErrAuth},
		{"replayed from another port", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok, 100, netip.MustParseAddrPort("192.0.2.10:4434"), cid
		}, qcrypto.ErrAuth},
		{"replayed for another cid", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok, 100, tokAddr, cid + 1
		}, qcrypto.ErrAuth},
		{"truncated", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return tok[:len(tok)-1], 100, tokAddr, cid
		}, qcrypto.ErrBlobCorrupt},
		{"empty", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return nil, 100, tokAddr, cid
		}, qcrypto.ErrBlobCorrupt},
		{"over-long", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			return append(tok, 0), 100, tokAddr, cid
		}, qcrypto.ErrAuth},
		{"corrupt mac bit", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			tok[len(tok)-1] ^= 1
			return tok, 100, tokAddr, cid
		}, qcrypto.ErrAuth},
		{"tampered timestamp", func(m *qcrypto.Minter, tok []byte) ([]byte, uint32, netip.AddrPort, uint32) {
			tok[4] ^= 1 // keeps it inside the lifetime window but breaks the tag
			return tok, 101, tokAddr, cid
		}, qcrypto.ErrAuth},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := qcrypto.NewMinter(10 * time.Second)
			tok := m.Mint(100, nil, tokenCtx(tokAddr, cid))
			if len(tok) != 33 {
				t.Fatalf("minted token is %d bytes, want 33", len(tok))
			}
			tok2, now, addr, id := tc.mutate(m, tok)
			if _, err := m.Open(now, tok2, tokenCtx(addr, id)); !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestTokenMintersIndependent pins that a token minted by one minter
// never validates on another (fresh random keys per endpoint).
func TestTokenMintersIndependent(t *testing.T) {
	a := qcrypto.NewMinter(10 * time.Second)
	b := qcrypto.NewMinter(10 * time.Second)
	tok := a.Mint(0, nil, tokenCtx(tokAddr, 1))
	if _, err := b.Open(0, tok, tokenCtx(tokAddr, 1)); err == nil {
		t.Fatal("token minted by one endpoint validated on another")
	}
}
