package qtp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qcrypto"
)

// newCryptoPair builds an encrypted initiator/responder pair sharing a
// connection ID, the responder backed by the given ticket minter and the
// initiator optionally armed with resumption state.
func newCryptoPair(tickets *qcrypto.Minter, resume *qcrypto.Resumption) (cli, srv *Conn) {
	cli = NewConn(Config{
		Initiator: true,
		Profile:   core.QTPLightReliable(0),
		ConnID:    7,
		Encrypt:   true,
		Resume:    resume,
	})
	// Distinct LocalID: the responder demuxes on its own minted ID, like
	// the UDP driver, so 0-RTT frames stamped with the client's proposed
	// ID exercise the remote-ID acceptance path.
	srv = NewConn(Config{
		Constraints: core.Permissive(1e6),
		LocalID:     9,
		Encrypt:     true,
		Tickets:     tickets,
	})
	return cli, srv
}

// cryptoDeliver moves one frame across a modeled encrypted wire:
// cleartext handshake types cross as-is, everything else is sealed by
// the sender's session and opened by the receiver's — exactly what the
// UDP driver does around the sans-IO core.
func cryptoDeliver(t *testing.T, now time.Duration, from, to *Conn, frame []byte) error {
	t.Helper()
	typ := packet.Type(frame[0] & 0x0f)
	if !from.CryptoEnabled() || packet.Cleartext(typ) {
		return to.HandleFrame(now, frame)
	}
	sess := from.cr.sess
	if sess == nil || !sess.CanSeal() {
		t.Fatalf("%v frame built with no sealing keys", typ)
	}
	sealed, err := sess.SealAppend(nil, from.RemoteID(), frame)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	inner, _, err := to.cr.sess.Open(sealed)
	if err != nil {
		return err
	}
	return to.HandleFrame(now, inner)
}

// pollFlight drains every frame a side wants to send at now.
func pollFlight(now time.Duration, c *Conn) [][]byte {
	var out [][]byte
	for {
		f, ok := c.PollFrame(now)
		if !ok {
			return out
		}
		out = append(out, append([]byte(nil), f...))
	}
}

// TestEncryptedHandshake runs the full encrypted exchange: handshake
// with key shares, data sealed both ways, a ticket minted by the server
// and harvested (once) by the client.
func TestEncryptedHandshake(t *testing.T) {
	cli, srv := newCryptoPair(qcrypto.NewMinter(qcrypto.TicketLifetime), nil)
	cli.Start(0)
	msg := bytes.Repeat([]byte("secret!"), 64)
	cli.Write(msg)
	cli.CloseSend()

	var got []byte
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		for _, f := range pollFlight(now, cli) {
			if err := cryptoDeliver(t, now, cli, srv, f); err != nil {
				t.Fatalf("client->server: %v", err)
			}
		}
		for {
			chunk, ok := srv.ReadStream(0)
			if !ok {
				break
			}
			got = append(got, chunk...)
		}
		for _, f := range pollFlight(now, srv) {
			if err := cryptoDeliver(t, now, srv, cli, f); err != nil {
				t.Fatalf("server->client: %v", err)
			}
		}
		now += 40 * time.Millisecond
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(msg))
	}
	if !srv.CryptoInfo().TicketIssued {
		t.Fatal("server minted no ticket")
	}
	r := cli.TakeResumption()
	if r == nil || len(r.Ticket) == 0 || len(r.Profile) == 0 {
		t.Fatalf("client harvested no resumption state: %+v", r)
	}
	if cli.TakeResumption() != nil {
		t.Fatal("TakeResumption must be single-shot")
	}
}

// TestZeroRTTOneFlightEarlier pins the point of resumption: a cold
// handshake delivers first data on the client's second flight, a
// resumed one on its first.
func TestZeroRTTOneFlightEarlier(t *testing.T) {
	tickets := qcrypto.NewMinter(qcrypto.TicketLifetime)

	run := func(resume *qcrypto.Resumption) (flights int, cli, srv *Conn) {
		cli, srv = newCryptoPair(tickets, resume)
		cli.Start(0)
		cli.Write([]byte("first-flight payload"))
		now := time.Duration(0)
		for i := 1; i <= 6; i++ {
			for _, f := range pollFlight(now, cli) {
				if err := cryptoDeliver(t, now, cli, srv, f); err != nil {
					t.Fatalf("client->server: %v", err)
				}
			}
			if _, ok := srv.ReadStream(0); ok {
				return i, cli, srv
			}
			for _, f := range pollFlight(now, srv) {
				if err := cryptoDeliver(t, now, srv, cli, f); err != nil {
					t.Fatalf("server->client: %v", err)
				}
			}
			now += 40 * time.Millisecond
		}
		t.Fatal("data never delivered")
		return 0, nil, nil
	}

	cold, cli, _ := run(nil)
	r := cli.TakeResumption()
	if r == nil {
		t.Fatal("cold handshake granted no ticket")
	}
	warm, _, srv := run(r)
	if cold != 2 || warm != 1 {
		t.Fatalf("client flights to first delivery: cold=%d warm=%d, want 2 and 1", cold, warm)
	}
	info := srv.CryptoInfo()
	if !info.EarlyOffered || !info.EarlyAccepted {
		t.Fatalf("server crypto info: %+v, want 0-RTT offered and accepted", info)
	}
}

// TestDowngradeStrippedKeyShare models an on-path attacker deleting the
// key-share TLV from each handshake message in turn. Both directions
// must refuse to continue in plaintext.
func TestDowngradeStrippedKeyShare(t *testing.T) {
	strip := func(t *testing.T, frame []byte) []byte {
		t.Helper()
		var hdr packet.Header
		payload, err := hdr.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		var hs packet.Handshake
		if err := hs.Parse(payload); err != nil {
			t.Fatal(err)
		}
		hs.KeyShare = nil
		hs.Ticket = nil
		stripped, err := hs.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		hdr.PayloadLen = uint16(len(stripped))
		return append(hdr.AppendTo(nil), stripped...)
	}

	t.Run("connect", func(t *testing.T) {
		cli, srv := newCryptoPair(nil, nil)
		cli.Start(0)
		connect, ok := cli.PollFrame(0)
		if !ok {
			t.Fatal("no connect")
		}
		err := srv.HandleFrame(0, strip(t, connect))
		if !errors.Is(err, ErrCryptoRequired) {
			t.Fatalf("stripped connect: %v, want ErrCryptoRequired", err)
		}
		if srv.State() != StateIdle {
			t.Fatalf("server state %v, want idle (no plaintext fallback)", srv.State())
		}
	})

	t.Run("accept", func(t *testing.T) {
		cli, srv := newCryptoPair(nil, nil)
		cli.Start(0)
		connect, _ := cli.PollFrame(0)
		if err := srv.HandleFrame(0, connect); err != nil {
			t.Fatal(err)
		}
		accept, ok := srv.PollFrame(0)
		if !ok {
			t.Fatal("no accept")
		}
		err := cli.HandleFrame(0, strip(t, accept))
		if !errors.Is(err, ErrCryptoRequired) {
			t.Fatalf("stripped accept: %v, want ErrCryptoRequired", err)
		}
		if cli.State() != StateClosed {
			t.Fatalf("client state %v, want closed (downgrade is terminal)", cli.State())
		}
	})
}

// TestZeroRTTRejection covers the resume paths that must fall back to a
// cold 1-RTT handshake: a ticket the server cannot open (wrong minter,
// i.e. rotated away or another server) and an expired ticket. The
// connection still establishes — only the early epoch is refused.
func TestZeroRTTRejection(t *testing.T) {
	mint := func(t *testing.T, tickets *qcrypto.Minter) *qcrypto.Resumption {
		t.Helper()
		cli, srv := newCryptoPair(tickets, nil)
		cli.Start(0)
		connect, _ := cli.PollFrame(0)
		if err := srv.HandleFrame(0, connect); err != nil {
			t.Fatal(err)
		}
		accept, _ := srv.PollFrame(0)
		if err := cli.HandleFrame(0, accept); err != nil {
			t.Fatal(err)
		}
		r := cli.TakeResumption()
		if r == nil {
			t.Fatal("no ticket minted")
		}
		return r
	}

	cases := []struct {
		name    string
		tickets func(t *testing.T) (minted, redeeming *qcrypto.Minter)
	}{
		{"wrong store", func(t *testing.T) (*qcrypto.Minter, *qcrypto.Minter) {
			return qcrypto.NewMinter(qcrypto.TicketLifetime), qcrypto.NewMinter(qcrypto.TicketLifetime)
		}},
		{"rotated twice", func(t *testing.T) (*qcrypto.Minter, *qcrypto.Minter) {
			ts := qcrypto.NewMinter(qcrypto.TicketLifetime)
			return ts, ts // rotated below, after minting
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			minted, redeeming := tc.tickets(t)
			r := mint(t, minted)
			if tc.name == "rotated twice" {
				now := minted.NowSecs()
				minted.Rotate(now)
				minted.Rotate(now)
			}

			cli, srv := newCryptoPair(redeeming, r)
			cli.Start(0)
			cli.Write([]byte("early data that must not be readable"))
			// First flight: Connect + sealed 0-RTT data the server cannot
			// open.
			for i, f := range pollFlight(0, cli) {
				if i == 0 {
					if err := srv.HandleFrame(0, f); err != nil {
						t.Fatal(err)
					}
					continue
				}
				sealed, err := cli.cr.sess.SealAppend(nil, cli.RemoteID(), f)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := srv.cr.sess.Open(sealed); err == nil {
					t.Fatal("server opened 0-RTT data under a rejected ticket")
				}
			}
			info := srv.CryptoInfo()
			if !info.EarlyOffered || info.EarlyAccepted {
				t.Fatalf("server crypto info: %+v, want offered but rejected", info)
			}
			// The handshake itself still completes at 1-RTT.
			accept, ok := srv.PollFrame(0)
			if !ok {
				t.Fatal("no accept")
			}
			if err := cli.HandleFrame(0, accept); err != nil {
				t.Fatal(err)
			}
			if cli.State() != StateEstablished || cli.CryptoInfo().EarlyAccepted {
				t.Fatalf("client state %v, early=%v; want established cold",
					cli.State(), cli.CryptoInfo().EarlyAccepted)
			}
		})
	}
}

// TestRetryRebindsZeroRTT checks the Retry interaction: the token
// changes the Connect payload, so early keys must re-derive — data
// sealed after the Retry opens under keys bound to the new payload.
func TestRetryRebindsZeroRTT(t *testing.T) {
	tickets := qcrypto.NewMinter(qcrypto.TicketLifetime)
	// Mint a resumption via a plain exchange.
	cli0, srv0 := newCryptoPair(tickets, nil)
	cli0.Start(0)
	connect, _ := cli0.PollFrame(0)
	if err := srv0.HandleFrame(0, connect); err != nil {
		t.Fatal(err)
	}
	accept, _ := srv0.PollFrame(0)
	if err := cli0.HandleFrame(0, accept); err != nil {
		t.Fatal(err)
	}
	r := cli0.TakeResumption()
	if r == nil {
		t.Fatal("no resumption")
	}

	cli, srv := newCryptoPair(tickets, r)
	cli.Start(0)
	cli.Write([]byte("early"))
	first := pollFlight(0, cli)
	if len(first) < 2 {
		t.Fatalf("0-RTT first flight has %d frames, want connect+data", len(first))
	}

	// Server answers with a stateless Retry instead of accepting.
	retry := packet.Retry{Token: []byte("prove-your-address")}
	rp, err := retry.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rh := packet.Header{Type: packet.TypeRetry, ConnID: cli.LocalID(), PayloadLen: uint16(len(rp))}
	if err := cli.HandleFrame(0, append(rh.AppendTo(nil), rp...)); err != nil {
		t.Fatal(err)
	}

	// The retried Connect carries the token; its payload differs from
	// the original, so the early keys have been re-derived.
	second := pollFlight(0, cli)
	if len(second) == 0 {
		t.Fatal("no retried connect")
	}
	if bytes.Equal(first[0], second[0]) {
		t.Fatal("retried Connect identical to original; token not attached")
	}
	if err := srv.HandleFrame(0, second[0]); err != nil {
		t.Fatal(err)
	}
	if !srv.CryptoInfo().EarlyAccepted {
		t.Fatal("server rejected 0-RTT after retry")
	}

	// The early data (first sealed under the pre-Retry keys, now dead)
	// is retransmitted sealed under the rebound keys and delivered.
	var got []byte
	now := time.Duration(0)
	for i := 0; i < 20 && len(got) < len("early"); i++ {
		now += 300 * time.Millisecond
		for _, f := range pollFlight(now, cli) {
			if err := cryptoDeliver(t, now, cli, srv, f); err != nil {
				t.Fatalf("client->server: %v", err)
			}
		}
		for {
			chunk, ok := srv.ReadStream(0)
			if !ok {
				break
			}
			got = append(got, chunk...)
		}
		for _, f := range pollFlight(now, srv) {
			if err := cryptoDeliver(t, now, srv, cli, f); err != nil {
				t.Fatalf("server->client: %v", err)
			}
		}
	}
	if string(got) != "early" {
		t.Fatalf("delivered %q after retry, want %q", got, "early")
	}
}
