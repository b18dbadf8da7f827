package qtpnet

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qcrypto"
	"repro/internal/qtp"
)

// newEstablishedResponder builds a qtp responder that has already seen
// a Connect, so finishAccept's state check passes.
func newEstablishedResponder(t *testing.T) *qtp.Conn {
	t.Helper()
	resp := qtp.NewConn(qtp.Config{Constraints: core.Permissive(1e6), LocalID: 99})
	init := qtp.NewConn(qtp.Config{Initiator: true, Profile: core.QTPLightReliable(0), ConnID: 99})
	init.Start(0)
	frame, ok := init.PollFrame(0)
	if !ok {
		t.Fatal("no connect frame")
	}
	if err := resp.HandleFrame(0, frame); err != nil {
		t.Fatal(err)
	}
	return resp
}

// rawKeyShare is a fixed well-formed X25519 public key for hand-crafted
// Connects: stateless admission on an encrypted endpoint drops
// key-share-less Connects before the token machinery these tests aim at.
var rawKeyShare = func() []byte {
	priv, err := qcrypto.GenerateKey()
	if err != nil {
		panic(err)
	}
	return priv.PublicKey().Bytes()
}()

// rawConnect encodes a token-less Connect frame proposing cid, exactly
// as an initiator's first datagram looks on the wire.
func rawConnect(t *testing.T, cid uint32, token []byte) []byte {
	t.Helper()
	hs := core.QTPLightReliable(0).Handshake()
	hs.ConnID = cid
	hs.Token = token
	// An encrypted server statelessly drops key-share-less Connects; a
	// plaintext one (the -cleartext leg) speaks the pre-encryption
	// handshake, where the smaller Connect also keeps the 3x
	// amplification allowance at its historical size.
	if !zeroConfig.cleartext {
		hs.KeyShare = rawKeyShare
	}
	payload, err := hs.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr := packet.Header{
		Type:       packet.TypeConnect,
		ConnID:     cid,
		Timestamp:  1,
		PayloadLen: uint16(len(payload)),
	}
	return append(hdr.AppendTo(nil), payload...)
}

// TestRetryTokenDial proves the transparent retry round-trip: a server
// requiring tokens challenges the first Connect with a stateless Retry,
// and the dialer completes the handshake by echoing the token — all
// inside one Dial call, invisible to the application.
func TestRetryTokenDial(t *testing.T) {
	srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
		RequireToken:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()

	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	conn, err := client.Dial(srv.Addr().String(), core.QTPLightReliable(0), 10*time.Second)
	if err != nil {
		t.Fatalf("dial against RequireToken server: %v", err)
	}
	defer conn.Close()

	if got := conn.Stats().RetriesReceived; got != 1 {
		t.Fatalf("RetriesReceived = %d, want exactly 1 challenge round", got)
	}
	st := srv.Stats()
	if st.RetrySent == 0 {
		t.Fatalf("server sent no Retry: %+v", st)
	}
	if st.TokenInvalid != 0 {
		t.Fatalf("valid token counted invalid: %+v", st)
	}
}

// TestTokenlessFloodAllocatesNothing is the tentpole acceptance test: a
// flood of token-less Connects from a raw socket (simulating spoofed
// sources that never complete the challenge) against a RequireToken
// endpoint must allocate zero connection state, answer with at most 3x
// the flood's bytes, and not stop a concurrent legitimate dial from
// completing.
func TestTokenlessFloodAllocatesNothing(t *testing.T) {
	srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
		RequireToken:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()

	// The legitimate dialer runs concurrently with the flood.
	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	dialDone := make(chan error, 1)
	go func() {
		conn, err := client.Dial(srv.Addr().String(), core.QTPLightReliable(0), 10*time.Second)
		if err == nil {
			defer conn.Close()
		}
		dialDone <- err
	}()

	// The attacker: a raw UDP socket spraying token-less Connects with
	// distinct proposed CIDs, never answering the challenges.
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	srvAddr := srv.Addr().(*net.UDPAddr)

	const flood = 200
	sent := 0
	for i := 0; i < flood; i++ {
		frame := rawConnect(t, uint32(0x10000+i), nil)
		if _, err := raw.WriteToUDP(frame, srvAddr); err != nil {
			t.Fatal(err)
		}
		sent += len(frame)
	}

	// Count the reply bytes the flood provoked. The attacker socket sees
	// only traffic addressed to it, so everything read here is Retries.
	recvd := 0
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	for {
		n, _, err := raw.ReadFromUDP(buf)
		if err != nil {
			break
		}
		recvd += n
		if packet.Type(buf[0]&0x0f) != packet.TypeRetry {
			t.Fatalf("flood reply type %d, want Retry only", buf[0]&0x0f)
		}
		raw.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	}

	if err := <-dialDone; err != nil {
		t.Fatalf("legitimate dial failed during flood: %v", err)
	}

	// Zero state for the flood: the only connection on the server is the
	// legitimate one.
	if n := srv.ConnCount(); n > 1 {
		t.Fatalf("flood allocated state: %d conns, want <= 1 (the legitimate dial)", n)
	}
	st := srv.Stats()
	if st.RetrySent < flood {
		t.Fatalf("RetrySent = %d, want >= %d (one challenge per flood Connect)", st.RetrySent, flood)
	}
	if recvd > 3*sent {
		t.Fatalf("flood of %d bytes provoked %d reply bytes (> 3x amplification)", sent, recvd)
	}
	if recvd == 0 {
		t.Fatal("flood provoked no Retries at all; challenge path dead")
	}
}

// TestTokenReplayAndCorruption exercises the validator through the real
// endpoint: a genuine token captured off a Retry is rejected when
// replayed from a different source address, when bound to a different
// CID, and when corrupted — each counted as TokenInvalid and answered
// with a fresh challenge, never a connection.
func TestTokenReplayAndCorruption(t *testing.T) {
	srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
		RequireToken:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srvAddr := srv.Addr().(*net.UDPAddr)

	dial := func(raw *net.UDPConn, cid uint32, token []byte) (reply []byte, ok bool) {
		if _, err := raw.WriteToUDP(rawConnect(t, cid, token), srvAddr); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2048)
		raw.SetReadDeadline(time.Now().Add(time.Second))
		n, _, err := raw.ReadFromUDP(buf)
		if err != nil {
			return nil, false
		}
		return buf[:n], true
	}

	victim, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	// Harvest a genuine token for (victim addr, cid 77).
	reply, ok := dial(victim, 77, nil)
	if !ok || packet.Type(reply[0]&0x0f) != packet.TypeRetry {
		t.Fatal("no Retry challenge for token-less Connect")
	}
	var hdr packet.Header
	payload, err := hdr.Parse(reply)
	if err != nil {
		t.Fatal(err)
	}
	var r packet.Retry
	if err := r.Parse(payload); err != nil {
		t.Fatal(err)
	}
	token := append([]byte(nil), r.Token...)

	attacker, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()

	base := srv.Stats().TokenInvalid
	cases := []struct {
		name  string
		raw   *net.UDPConn
		cid   uint32
		token []byte
	}{
		{"replayed from other address", attacker, 77, token},
		{"bound to other cid", victim, 78, token},
		{"corrupt MAC", victim, 77, flipLastBit(token)},
		{"truncated", victim, 77, token[:len(token)-1]},
	}
	for _, tc := range cases {
		reply, ok := dial(tc.raw, tc.cid, tc.token)
		if !ok {
			t.Fatalf("%s: no reply (want a fresh challenge)", tc.name)
		}
		if typ := packet.Type(reply[0] & 0x0f); typ != packet.TypeRetry {
			t.Fatalf("%s: reply type %d, want Retry", tc.name, typ)
		}
	}
	if srv.ConnCount() != 0 {
		t.Fatalf("bad tokens allocated %d conns, want 0", srv.ConnCount())
	}
	if got := srv.Stats().TokenInvalid - base; got != uint64(len(cases)) {
		t.Fatalf("TokenInvalid advanced by %d, want %d", got, len(cases))
	}

	// Control: the genuine token from the right address on the right CID
	// is accepted — the server answers with an Accept, not a Retry.
	reply, ok = dial(victim, 77, token)
	if !ok {
		t.Fatal("valid token got no reply")
	}
	if typ := packet.Type(reply[0] & 0x0f); typ != packet.TypeAccept {
		t.Fatalf("valid token answered with type %d, want Accept", typ)
	}
	if srv.ConnCount() != 1 {
		t.Fatalf("valid token allocated %d conns, want 1", srv.ConnCount())
	}
}

func flipLastBit(tok []byte) []byte {
	out := append([]byte(nil), tok...)
	out[len(out)-1] ^= 1
	return out
}

// TestAcceptQueueShedding drives more concurrent dials than a backlog-1
// accept queue can hold: the overflow must be shed with Retry-after
// hints (counted as HandshakeDropped), every dialer must still complete
// once the application drains the queue, and none of it may rely on the
// old silent finishAccept drop.
func TestAcceptQueueShedding(t *testing.T) {
	srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
		AcceptBacklog: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A deliberately slow accept loop, so the queue saturates.
	var accepted []*Conn
	var acceptMu sync.Mutex
	go func() {
		for {
			c, err := srv.Accept()
			if err != nil {
				return
			}
			acceptMu.Lock()
			accepted = append(accepted, c)
			acceptMu.Unlock()
			time.Sleep(100 * time.Millisecond)
		}
	}()

	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const dials = 6
	errs := make(chan error, dials)
	for i := 0; i < dials; i++ {
		go func() {
			conn, err := client.Dial(srv.Addr().String(), core.QTPLightReliable(0), 15*time.Second)
			if err == nil {
				defer conn.Close()
			}
			errs <- err
		}()
	}
	for i := 0; i < dials; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("dial %d failed under queue pressure: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.HandshakeDropped == 0 && st.RetrySent == 0 {
		t.Fatalf("backlog 1 under %d concurrent dials never shed or challenged: %+v", dials, st)
	}
	acceptMu.Lock()
	defer acceptMu.Unlock()
	for _, c := range accepted {
		c.Close()
	}
}

// TestAmplificationCap pins the pre-validation 3x byte cap with tokens
// off: a raw Connect that then goes silent keeps provoking Accept
// retransmissions, which must stop once the responder has spent 3x the
// bytes it received from the unproven address.
func TestAmplificationCap(t *testing.T) {
	srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()

	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	srvAddr := srv.Addr().(*net.UDPAddr)

	frame := rawConnect(t, 0xabcd, nil)
	if _, err := raw.WriteToUDP(frame, srvAddr); err != nil {
		t.Fatal(err)
	}

	// Then silence: count every byte the server sends back over the full
	// control-retransmission horizon.
	recvd := 0
	deadline := time.Now().Add(3 * time.Second)
	buf := make([]byte, 2048)
	for time.Now().Before(deadline) {
		raw.SetReadDeadline(deadline)
		n, _, err := raw.ReadFromUDP(buf)
		if err != nil {
			break
		}
		recvd += n
	}
	if recvd == 0 {
		t.Fatal("no Accept at all; handshake path dead")
	}
	if recvd > 3*len(frame) {
		t.Fatalf("one silent %d-byte Connect provoked %d reply bytes (> 3x cap)", len(frame), recvd)
	}
	if got := srv.Stats().AmplificationCapped; got == 0 {
		t.Fatal("cap never engaged: AmplificationCapped = 0")
	}
}

// TestFinishAcceptOverflowCounted unit-tests the post-allocation
// overflow path directly: with the accept queue already full,
// finishAccept must abandon the connection and count it, not drop it
// silently.
func TestFinishAcceptOverflowCounted(t *testing.T) {
	srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
		AcceptBacklog: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Fill the queue so the next finishAccept hits the default branch.
	srv.acceptCh <- &Conn{}

	c := newConn(srv.shards[0], netip.MustParseAddrPort("127.0.0.1:1"), 99)
	c.inner = newEstablishedResponder(t)
	if kept := srv.shards[0].finishAccept(c, nil); kept {
		t.Fatal("finishAccept kept a connection with a full backlog")
	}
	if got := srv.Stats().AcceptOverflow; got != 1 {
		t.Fatalf("AcceptOverflow = %d, want 1", got)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("overflowed connection not torn down")
	}
}

// TestRefusedDatagramAllocatesNothing pins the cost of the two
// refusals handleFrame makes before the state machine sees a byte — a
// sealed datagram on a connection with no keys, a cleartext data frame
// on a connection that has them: each is counted as an open failure and
// costs no allocation, error value included, so a flood of them cannot
// turn the receive path into a garbage generator.
func TestRefusedDatagramAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clear   bool
		hdr     packet.Header
		refusal error
	}{
		{"sealed_before_keys", true, packet.Header{Type: packet.TypeSealed, Flags: uint8(qcrypto.Epoch1RTT)}, errSealedBeforeKeys},
		{"cleartext_on_encrypted", false, packet.Header{Type: packet.TypeData, Seq: 1}, errCleartextOnEncrypted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.clear {
				skipIfCleartext(t)
			}
			srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
				AcceptInbound:     true,
				Constraints:       core.Permissive(1e6),
				DisableEncryption: tc.clear,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			go srv.Accept()
			client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{DisableEncryption: tc.clear})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			conn, err := client.Dial(srv.Addr().String(), core.QTPLight(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Millisecond) // let the handshake's tail go quiet

			tc.hdr.ConnID = conn.ID()
			frame := tc.hdr.AppendTo(nil)
			if err := conn.sh.handleFrame(conn, frame, conn.sh.now()); err != tc.refusal {
				t.Fatalf("handleFrame = %v, want %v", err, tc.refusal)
			}
			from := srv.Addr().(*net.UDPAddr).AddrPort()
			before := client.Stats().OpenFailures
			const runs = 1000
			allocs := testing.AllocsPerRun(runs, func() {
				if client.Deliver(from, frame) {
					t.Error("refused datagram reported as delivered")
				}
			})
			if allocs != 0 {
				t.Errorf("a refused datagram costs %v allocations, want 0", allocs)
			}
			// AllocsPerRun makes one warm-up call.
			if got := client.Stats().OpenFailures - before; got != runs+1 {
				t.Errorf("OpenFailures grew by %d over %d refusals", got, runs+1)
			}
		})
	}
}
