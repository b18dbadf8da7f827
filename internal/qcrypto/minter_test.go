package qcrypto

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

var (
	blobBody = []byte("a sealed body of some length")
	blobCtx  = []byte("address|port|cid")
)

// TestMinterRejectionTable is the sweep over everything a blob binds and
// everything an attacker can do to one: expiry on either side of the
// mint time, key rotation across the two-key window, another minter's
// keys, truncation, a flipped byte in every field, and a blob opened
// under a context other than the one it was minted for. Each case names
// the one check in Open that must catch it, so skipping any check
// fails at least one case.
func TestMinterRejectionTable(t *testing.T) {
	flip := func(b []byte, i int) []byte {
		b[i] ^= 1
		return b
	}
	// Each open receives a blob minted at t=100 under blobCtx, and its
	// minter (10 s lifetime), and opens it the way the case describes.
	cases := []struct {
		name string
		open func(m *Minter, b []byte) ([]byte, error)
		want error
	}{
		{"valid", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, b, blobCtx)
		}, nil},
		{"valid at lifetime edge", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100+m.Lifetime(), b, blobCtx)
		}, nil},
		{"expired", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100+m.Lifetime()+1, b, blobCtx)
		}, ErrBlobExpired},
		{"minted in the future", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(99, b, blobCtx)
		}, ErrBlobExpired},
		{"survives one rotation", func(m *Minter, b []byte) ([]byte, error) {
			m.Rotate(101)
			return m.Open(102, b, blobCtx)
		}, nil},
		{"dead after two rotations", func(m *Minter, b []byte) ([]byte, error) {
			m.Rotate(101)
			m.Rotate(102)
			return m.Open(103, b, blobCtx)
		}, ErrBlobKey},
		{"another minter's blob", func(m *Minter, b []byte) ([]byte, error) {
			// Same key ID and mint time, different key.
			return m.Open(100, NewMinter(10*time.Second).Mint(100, blobBody, blobCtx), blobCtx)
		}, ErrAuth},
		{"truncated", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, b[:BlobOverhead-1], blobCtx)
		}, ErrBlobCorrupt},
		{"empty", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, nil, blobCtx)
		}, ErrBlobCorrupt},
		{"over-long", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, append(b, 0), blobCtx)
		}, ErrAuth},
		{"flipped body byte", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, flip(b, blobHdrLen+3), blobCtx)
		}, ErrAuth},
		{"flipped tag byte", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, flip(b, len(b)-1), blobCtx)
		}, ErrAuth},
		{"flipped nonce byte", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, flip(b, 5+NonceLen/2), blobCtx)
		}, ErrAuth},
		{"flipped mint time", func(m *Minter, b []byte) ([]byte, error) {
			// The flip forges mint time 101; opening at 101 keeps the
			// forgery inside its lifetime, so only the AEAD can reject it.
			return m.Open(101, flip(b, 4), blobCtx)
		}, ErrAuth},
		{"another context", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, b, []byte("address|port|cie"))
		}, ErrAuth},
		{"no context", func(m *Minter, b []byte) ([]byte, error) {
			return m.Open(100, b, nil)
		}, ErrAuth},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMinter(10 * time.Second)
			blob := m.Mint(100, blobBody, blobCtx)
			if len(blob) != BlobOverhead+len(blobBody) {
				t.Fatalf("minted blob is %d bytes, want %d", len(blob), BlobOverhead+len(blobBody))
			}
			body, err := tc.open(m, blob)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
			if err == nil && !bytes.Equal(body, blobBody) {
				t.Fatalf("Open returned body %q, want %q", body, blobBody)
			}
		})
	}
}

// TestMinterLazyRotation checks that the mint path rotates on schedule
// without an explicit Rotate call, not before, and that blobs from just
// before the rotation edge stay valid under the previous key for a full
// lifetime.
func TestMinterLazyRotation(t *testing.T) {
	m := NewMinter(10 * time.Second)
	old := m.Mint(5, nil, blobCtx)
	// A mint past the key's lifetime rotates first: the two blobs now
	// carry different key IDs.
	fresh := m.Mint(15, nil, blobCtx)
	if old[0] == fresh[0] {
		t.Fatalf("key did not rotate: both blobs carry key id %d", old[0])
	}
	if again := m.Mint(24, nil, blobCtx); again[0] != fresh[0] {
		t.Fatalf("key rotated %d s into its %d s lifetime", 24-15, m.Lifetime())
	}
	if _, err := m.Open(15, old, blobCtx); err != nil {
		t.Fatalf("pre-rotation blob rejected under previous key: %v", err)
	}
	if _, err := m.Open(16, old, blobCtx); !errors.Is(err, ErrBlobExpired) {
		t.Fatalf("blob outlived its lifetime: %v", err)
	}
	if _, err := m.Open(15, fresh, blobCtx); err != nil {
		t.Fatalf("fresh blob rejected: %v", err)
	}
}

// TestTicketRoundTrip pins the ticket helpers: the layout's length, the
// sealed secret and profile coming back, and the TLV budget guard.
func TestTicketRoundTrip(t *testing.T) {
	m := NewMinter(TicketLifetime)
	var secret [KeyLen]byte
	secret[0] = 0xA5
	profile := []byte{4, 1, 5, 2, 0, 0, 0, 0}
	tk := MintTicket(m, secret, profile)
	if want := 1 + 4 + NonceLen + KeyLen + len(profile) + TagLen; len(tk) != want {
		t.Fatalf("ticket is %d bytes, want %d", len(tk), want)
	}
	gotSecret, gotProfile, err := OpenTicket(m, tk)
	if err != nil {
		t.Fatal(err)
	}
	if gotSecret != secret || !bytes.Equal(gotProfile, profile) {
		t.Fatal("ticket round trip mismatch")
	}
	if n := len(MintTicket(m, secret, make([]byte, maxTicketBody-KeyLen))); n != 255 {
		t.Fatalf("largest ticket is %d bytes, want the 255-byte TLV limit", n)
	}
	if MintTicket(m, secret, make([]byte, maxTicketBody-KeyLen+1)) != nil {
		t.Fatal("minted a ticket past the TLV limit")
	}
}

// TestTicketRejectionTable is the 0-RTT rejection matrix over blobs of a
// ticket's shape (secret || profile, no context) on a ticket-lifetime
// minter: expired tickets, tickets from a rotated-out or foreign key,
// corrupt and truncated ones all refuse — each for its distinct reason,
// so the endpoint's ZeroRTTRejected accounting (and a fallback to 1-RTT)
// is what follows, never a panic or a bogus accept.
func TestTicketRejectionTable(t *testing.T) {
	body := append(make([]byte, KeyLen), 1, 2, 3)

	cases := []struct {
		name string
		tk   func(m *Minter) []byte
		now  func(m *Minter) uint32
		want error
	}{
		{
			name: "expired",
			tk:   func(m *Minter) []byte { return m.Mint(0, body, nil) },
			now:  func(m *Minter) uint32 { return m.Lifetime() + 1 },
			want: ErrBlobExpired,
		},
		{
			name: "minted in the future",
			tk:   func(m *Minter) []byte { return m.Mint(100, body, nil) },
			now:  func(m *Minter) uint32 { return 99 },
			want: ErrBlobExpired,
		},
		{
			name: "key rotated out twice",
			tk: func(m *Minter) []byte {
				tk := m.Mint(0, body, nil)
				m.Rotate(0)
				m.Rotate(0)
				return tk
			},
			now:  func(m *Minter) uint32 { return 1 },
			want: ErrBlobKey,
		},
		{
			name: "wrong key (fresh store)",
			tk: func(m *Minter) []byte {
				return NewMinter(TicketLifetime).Mint(0, body, nil)
			},
			now:  func(m *Minter) uint32 { return 1 },
			want: ErrAuth,
		},
		{
			name: "truncated",
			tk: func(m *Minter) []byte {
				return m.Mint(0, body, nil)[:BlobOverhead-1]
			},
			now:  func(m *Minter) uint32 { return 1 },
			want: ErrBlobCorrupt,
		},
		{
			name: "flipped ciphertext byte",
			tk: func(m *Minter) []byte {
				tk := m.Mint(0, body, nil)
				tk[blobHdrLen+3] ^= 1
				return tk
			},
			now:  func(m *Minter) uint32 { return 1 },
			want: ErrAuth,
		},
		{
			name: "flipped mint time (AAD)",
			tk: func(m *Minter) []byte {
				tk := m.Mint(0, body, nil)
				tk[2] ^= 1
				return tk
			},
			// tk[2]^1 forges mint = 65536; pick a now inside the forged
			// lifetime so the expiry gate passes and only AEAD can reject.
			now:  func(m *Minter) uint32 { return 65536 + 10 },
			want: ErrAuth,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMinter(TicketLifetime)
			tk := tc.tk(m)
			if _, err := m.Open(tc.now(m), tk, nil); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// survives one rotation: still redeemable under prev key
	m := NewMinter(TicketLifetime)
	tk := m.Mint(0, body, nil)
	m.Rotate(0)
	if _, err := m.Open(1, tk, nil); err != nil {
		t.Fatalf("ticket under prev key: %v", err)
	}
}

// FuzzMinterOpen is the fuzz target for Open, which reads
// attacker-controlled bytes on the unauthenticated path (a token in any
// Connect, a ticket in any resuming one). Properties: no input panics,
// no input that differs from a minted blob in any byte opens, and an
// accepted blob never opens under another context.
func FuzzMinterOpen(f *testing.F) {
	m := NewMinter(10 * time.Second)
	token := m.Mint(100, nil, blobCtx)
	sealed := m.Mint(100, blobBody, blobCtx)
	f.Add(token, uint32(100))
	f.Add(sealed, uint32(105))
	f.Add([]byte{}, uint32(0))
	f.Add(bytes.Repeat([]byte{0xff}, BlobOverhead), uint32(100))
	mut := append([]byte(nil), token...)
	mut[blobHdrLen] ^= 0x80
	f.Add(mut, uint32(100))
	f.Fuzz(func(t *testing.T, data []byte, nowSecs uint32) {
		if _, err := m.Open(nowSecs, data, blobCtx); err != nil {
			return
		}
		if !bytes.Equal(data, token) && !bytes.Equal(data, sealed) {
			t.Fatalf("forged blob opened: %x (now=%d)", data, nowSecs)
		}
		for _, other := range [][]byte{nil, []byte("address|port|cie")} {
			if _, err := m.Open(nowSecs, data, other); err == nil {
				t.Fatalf("blob opened under context %q: %x", other, data)
			}
		}
	})
}
