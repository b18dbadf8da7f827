package qtpnet

import (
	"errors"
	"net/netip"
	"testing"

	"repro/internal/qcrypto"
)

// TestTokenBinding pins what a source-address token binds, without a
// socket: minted for one (address, port, CID) under tokenContext, a
// token is BlobOverhead (33) bytes and opens only for that exact triple,
// over v4 and v6 alike. The endpoint's two minters never accept each
// other's blobs: a ticket is no token and a token redeems no ticket.
func TestTokenBinding(t *testing.T) {
	tokens := qcrypto.NewMinter(tokenLifetime)
	tickets := qcrypto.NewMinter(qcrypto.TicketLifetime)
	open := func(tok []byte, from netip.AddrPort, cid uint32) error {
		ctx := tokenContext(from, cid)
		_, err := tokens.Open(tokens.NowSecs(), tok, ctx[:])
		return err
	}

	for _, tc := range []struct{ from, otherAddr, otherPort string }{
		{"192.0.2.10:4433", "192.0.2.11:4433", "192.0.2.10:4434"},
		{"[2001:db8::7]:4433", "[2001:db8::8]:4433", "[2001:db8::7]:4434"},
	} {
		from := netip.MustParseAddrPort(tc.from)
		const cid = 0xabc1234
		ctx := tokenContext(from, cid)
		tok := tokens.Mint(tokens.NowSecs(), nil, ctx[:])
		if len(tok) != qcrypto.BlobOverhead || len(tok) != 33 {
			t.Fatalf("%s: token is %d bytes, want 33", tc.from, len(tok))
		}
		if err := open(tok, from, cid); err != nil {
			t.Fatalf("%s: genuine token rejected: %v", tc.from, err)
		}
		for name, err := range map[string]error{
			"another address": open(tok, netip.MustParseAddrPort(tc.otherAddr), cid),
			"another port":    open(tok, netip.MustParseAddrPort(tc.otherPort), cid),
			"another CID":     open(tok, from, cid+1),
		} {
			if !errors.Is(err, qcrypto.ErrAuth) {
				t.Errorf("%s: token under %s: %v, want ErrAuth", tc.from, name, err)
			}
		}

		// The two kinds of blob never cross.
		if _, _, err := qcrypto.OpenTicket(tickets, tok); err == nil {
			t.Errorf("%s: a token redeemed as a ticket", tc.from)
		}
		var secret [qcrypto.KeyLen]byte
		ticket := qcrypto.MintTicket(tickets, secret, []byte{1, 2, 3})
		if err := open(ticket, from, cid); err == nil {
			t.Errorf("%s: a ticket validated as a token", tc.from)
		}
	}
}
