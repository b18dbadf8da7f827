package qtpnet

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qcrypto"
)

// mitmRelay is a single-client UDP man-in-the-middle: it binds a fresh
// port, learns the client from the first datagram it sees, and shuttles
// traffic to/from the server, passing every datagram through tap. tap
// may return a rewritten datagram, or nil to drop it. It returns the
// address the client should dial.
func mitmRelay(t *testing.T, server net.Addr, tap func(toServer bool, dgram []byte) []byte) net.Addr {
	t.Helper()
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close(); back.Close() })
	srvAddr := server.(*net.UDPAddr)

	var mu sync.Mutex
	var client *net.UDPAddr
	go func() { // client -> server
		buf := make([]byte, 64<<10)
		for {
			n, from, err := front.ReadFromUDP(buf)
			if err != nil {
				return
			}
			mu.Lock()
			client = from
			mu.Unlock()
			if out := tap(true, append([]byte(nil), buf[:n]...)); out != nil {
				back.WriteToUDP(out, srvAddr)
			}
		}
	}()
	go func() { // server -> client
		buf := make([]byte, 64<<10)
		for {
			n, _, err := back.ReadFromUDP(buf)
			if err != nil {
				return
			}
			mu.Lock()
			to := client
			mu.Unlock()
			if to == nil {
				continue
			}
			if out := tap(false, append([]byte(nil), buf[:n]...)); out != nil {
				front.WriteToUDP(out, to)
			}
		}
	}()
	return front.LocalAddr()
}

// TestSealedWireNoPlaintext is the tentpole byte-level acceptance test:
// with encryption on (the default), application bytes never appear on
// the wire, and the data path actually runs over sealed datagrams.
func TestSealedWireNoPlaintext(t *testing.T) {
	skipIfCleartext(t)
	assertSealedWire(t)
}

// assertSealedWire moves a marker through a man-in-the-middle relay and
// fails unless the connection negotiated encryption and every
// post-handshake datagram the relay saw was sealed.
func assertSealedWire(t *testing.T) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", core.Permissive(1e6))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// 32 bytes that cannot arise in headers by accident.
	marker := bytes.Repeat([]byte{0xA5, 0x5A, 0xC3, 0x3C}, 8)

	var mu sync.Mutex
	leaked, sealed, cleartextData := false, 0, 0
	relayAddr := mitmRelay(t, l.Addr(), func(toServer bool, dgram []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		if bytes.Contains(dgram, marker) {
			leaked = true
		}
		switch typ := packet.Type(dgram[0] & 0x0f); {
		case typ == packet.TypeSealed:
			sealed++
		case !packet.Cleartext(typ):
			cleartextData++
		}
		return dgram
	})

	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	conn, err := Dial(relayAddr.String(), core.QTPLightReliable(0), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(marker); err != nil {
		t.Fatal(err)
	}
	conn.CloseSend()

	var sc *Conn
	select {
	case sc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server accepted nothing")
	}
	defer sc.Close()
	var got []byte
	deadline := time.Now().Add(10 * time.Second)
	for !sc.Finished() && time.Now().Before(deadline) {
		chunk, ok := sc.Read(time.Second)
		if !ok {
			continue
		}
		got = append(got, chunk...)
		sc.Release(chunk)
	}
	if !bytes.Equal(got, marker) {
		t.Fatalf("delivered %d bytes, want the %d-byte marker", len(got), len(marker))
	}

	mu.Lock()
	defer mu.Unlock()
	if leaked {
		t.Fatal("application marker bytes observed in cleartext on the wire")
	}
	if sealed == 0 {
		t.Fatal("no sealed datagrams on the wire; encryption not engaged")
	}
	if cleartextData > 0 {
		t.Fatalf("%d non-handshake cleartext frames on the wire", cleartextData)
	}
	if st := l.Stats(); st.TicketsIssued == 0 {
		t.Fatalf("server minted no session ticket; handshake was not encrypted: %v", st)
	}
}

// TestSealedFramesPastOneChunk runs a sealed transfer whose frames do
// not fit a 2 KiB chunk: at a 4,000-byte MSS a train holds 16 of them,
// a lone one stays in the train buffer instead of moving to a chunk,
// and every byte still arrives.
func TestSealedFramesPastOneChunk(t *testing.T) {
	skipIfCleartext(t)
	const mss = 4000
	cons := core.Permissive(1e7)
	cons.MaxMSS = mss
	l, err := Listen("127.0.0.1:0", cons)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	prof := core.QTPLightReliable(0)
	prof.MSS = mss
	conn, err := Dial(l.Addr().String(), prof, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := make([]byte, 64<<10)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if _, err := conn.Write(want); err != nil {
		t.Fatal(err)
	}
	conn.CloseSend()

	var sc *Conn
	select {
	case sc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server accepted nothing")
	}
	defer sc.Close()
	var got []byte
	deadline := time.Now().Add(10 * time.Second)
	for !sc.Finished() && time.Now().Before(deadline) {
		chunk, ok := sc.Read(time.Second)
		if !ok {
			continue
		}
		got = append(got, chunk...)
		sc.Release(chunk)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(want))
	}
	if st := conn.Stats(); st.DataFramesSent > len(want)/2048 {
		t.Fatalf("%d data frames for %d bytes: the %d-byte MSS was not negotiated", st.DataFramesSent, len(want), mss)
	}
}

// TestDowngradeStripE2E runs the classic downgrade MITM over real
// sockets: a middlebox strips the key-share TLV from the Connect,
// hoping both ends fall back to plaintext. The server must drop the
// Connect statelessly and the dial must fail — never connect unsealed.
func TestDowngradeStripE2E(t *testing.T) {
	skipIfCleartext(t)
	l, err := Listen("127.0.0.1:0", core.Permissive(1e6))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	relayAddr := mitmRelay(t, l.Addr(), func(toServer bool, dgram []byte) []byte {
		if !toServer || packet.Type(dgram[0]&0x0f) != packet.TypeConnect {
			return dgram
		}
		var hdr packet.Header
		payload, err := hdr.Parse(dgram)
		if err != nil {
			return dgram
		}
		var hs packet.Handshake
		if err := hs.Parse(payload); err != nil {
			return dgram
		}
		hs.KeyShare = nil
		hs.Ticket = nil
		stripped, err := hs.AppendTo(nil)
		if err != nil {
			return dgram
		}
		hdr.PayloadLen = uint16(len(stripped))
		return append(hdr.AppendTo(nil), stripped...)
	})

	if _, err := Dial(relayAddr.String(), core.QTPLightReliable(0), 1500*time.Millisecond); err == nil {
		t.Fatal("dial through a key-share-stripping MITM succeeded; downgrade to plaintext")
	}
	if got := l.Stats().HandshakeDropped; got == 0 {
		t.Fatal("server accepted or challenged a key-share-less Connect instead of dropping it")
	}
}

// TestZeroRTTResumeE2E proves resumption end to end over UDP: a second
// dial from the same endpoint to the same server redeems the cached
// ticket, the server opens the 0-RTT data, and both sides' stats agree.
// The cache belongs to the endpoint, not to a socket: a two-shard dialer
// sends its second dial from its other socket and must still resume
// (it paid one full handshake per shard while each shard kept its own).
func TestZeroRTTResumeE2E(t *testing.T) {
	skipIfCleartext(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("dialer_shards=%d", shards), func(t *testing.T) {
			testZeroRTTResume(t, shards)
		})
	}
}

func testZeroRTTResume(t *testing.T, shards int) {
	l, err := Listen("127.0.0.1:0", core.Permissive(1e6))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{}, shards)
	defer client.Close()

	serve := func() ([]byte, error) {
		sc, err := l.Accept()
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		var got []byte
		deadline := time.Now().Add(10 * time.Second)
		for !sc.Finished() && time.Now().Before(deadline) {
			chunk, ok := sc.Read(time.Second)
			if !ok {
				continue
			}
			got = append(got, chunk...)
			sc.Release(chunk)
		}
		return got, nil
	}

	roundTrip := func(msg []byte, wantEarly bool) []byte {
		t.Helper()
		gotCh := make(chan []byte, 1)
		go func() {
			got, err := serve()
			if err != nil {
				t.Error(err)
			}
			gotCh <- got
		}()
		conn, err := client.Dial(l.Addr().String(), core.QTPLightReliable(0), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.mu.Lock()
		early := conn.inner.CryptoInfo().EarlyOffered
		conn.mu.Unlock()
		if early != wantEarly {
			t.Fatalf("dial from shard %d offered 0-RTT = %v, want %v", conn.sh.idx, early, wantEarly)
		}
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		conn.CloseSend()
		select {
		case <-conn.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("close exchange never finished")
		}
		conn.Close()
		select {
		case got := <-gotCh:
			return got
		case <-time.After(10 * time.Second):
			t.Fatal("server never finished reading")
			return nil
		}
	}

	cold := bytes.Repeat([]byte("cold"), 256)
	if got := roundTrip(cold, false); !bytes.Equal(got, cold) {
		t.Fatalf("cold exchange delivered %d bytes, want %d", len(got), len(cold))
	}
	if st := l.Stats(); st.TicketsIssued == 0 {
		t.Fatalf("cold handshake issued no ticket: %+v", st)
	}

	warm := bytes.Repeat([]byte("warm"), 256)
	if got := roundTrip(warm, true); !bytes.Equal(got, warm) {
		t.Fatalf("warm exchange delivered %d bytes, want %d", len(got), len(warm))
	}
	st := l.Stats()
	if st.ZeroRTTAccepted != 1 {
		t.Fatalf("ZeroRTTAccepted = %d, want 1 (stats: %+v)", st.ZeroRTTAccepted, st)
	}
	if st.ZeroRTTRejected != 0 {
		t.Fatalf("ZeroRTTRejected = %d, want 0", st.ZeroRTTRejected)
	}
	if st.OpenFailures != 0 || st.SealFailures != 0 {
		t.Fatalf("crypto failures during resume: %+v", st)
	}
}

// presetSealCount moves a connection's sealer to the n-th datagram of
// its current key generation, so a test reaches the 2^24 key-update
// boundary without sealing sixteen million datagrams. qcrypto exports
// no threshold and no test hook on purpose; this reaches the unexported
// counter from outside and fails loudly if it is ever renamed.
func presetSealCount(t *testing.T, c *Conn, n uint64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	sess := c.inner.CryptoSession()
	if sess == nil {
		t.Fatal("connection has no crypto session")
	}
	seq := reflect.ValueOf(sess).Elem().FieldByName("tx").FieldByName("seq")
	if seq.Kind() != reflect.Uint64 {
		t.Fatal("qcrypto.Session.tx.seq is gone; update presetSealCount")
	}
	*(*uint64)(unsafe.Pointer(seq.UnsafeAddr())) = n
}

func sendEpoch(c *Conn) uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.CryptoSession().SendEpoch()
}

// TestKeyUpdateE2E carries one transfer across a key update in each
// direction over real sockets: the client's data datagrams and the
// server's feedback both cross the boundary mid-flow, every byte
// arrives, neither sealer ever refuses and nothing fails to open.
func TestKeyUpdateE2E(t *testing.T) {
	skipIfCleartext(t)
	const keyUpdateInterval = 1 << 24 // qcrypto's, unexported
	l, err := Listen("127.0.0.1:0", core.Permissive(1e6))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	conn, err := Dial(l.Addr().String(), core.QTPLightReliable(0), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var sc *Conn
	select {
	case sc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server accepted nothing")
	}
	defer sc.Close()
	if sendEpoch(conn) != qcrypto.Epoch1RTT || sendEpoch(sc) != qcrypto.Epoch1RTT {
		t.Fatal("connection did not start in the first 1-RTT generation")
	}
	presetSealCount(t, conn, keyUpdateInterval-20)
	presetSealCount(t, sc, keyUpdateInterval-3)

	want := make([]byte, 256<<10)
	for i := range want {
		want[i] = byte(i * 7)
	}
	go func() {
		conn.Write(want)
		conn.CloseSend()
	}()
	var got []byte
	deadline := time.Now().Add(20 * time.Second)
	for !sc.Finished() && time.Now().Before(deadline) {
		chunk, ok := sc.Read(time.Second)
		if !ok {
			continue
		}
		got = append(got, chunk...)
		sc.Release(chunk)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes across the key update, want %d identical", len(got), len(want))
	}
	select {
	case <-conn.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("close exchange never finished")
	}
	if e := sendEpoch(conn); e != qcrypto.Epoch1RTT+1 {
		t.Fatalf("client still seals under epoch %d", e)
	}
	if e := sendEpoch(sc); e != qcrypto.Epoch1RTT+1 {
		t.Fatalf("server still seals under epoch %d", e)
	}
	for name, st := range map[string]EndpointStats{"client": conn.sh.ep.Stats(), "server": l.Stats()} {
		if st.SealFailures != 0 || st.OpenFailures != 0 {
			t.Fatalf("%s: sealfail %d openfail %d", name, st.SealFailures, st.OpenFailures)
		}
	}
}
