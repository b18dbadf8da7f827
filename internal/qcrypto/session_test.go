package qcrypto

import (
	"bytes"
	"testing"

	"repro/internal/packet"
)

// handshakePair derives both ends of a 1-RTT session the way the qtp
// layer does: fresh X25519 each side, transcript over the payload
// bytes.
func handshakePair(t *testing.T) (client, server *Session) {
	t.Helper()
	cPriv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	sPriv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	connectPayload := []byte("connect-payload")
	acceptPayload := []byte("accept-payload")
	cShared, err := Shared(cPriv, sPriv.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sShared, err := Shared(sPriv, cPriv.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cShared, sShared) {
		t.Fatal("ECDH disagreement")
	}
	tr := TranscriptHash(connectPayload, acceptPayload)
	c2s, s2c := SessionKeys(cShared, tr)

	client = NewSession()
	client.SetSendKeys(Epoch1RTT, c2s)
	client.SetRecvKeys(Epoch1RTT, s2c)
	server = NewSession()
	server.SetSendKeys(Epoch1RTT, s2c)
	server.SetRecvKeys(Epoch1RTT, c2s)
	return client, server
}

func TestSessionSealOpen(t *testing.T) {
	client, server := handshakePair(t)
	for i := 0; i < 100; i++ {
		frame := []byte("inner frame bytes with header-ish content")
		dgram, err := client.SealAppend(nil, 42, frame)
		if err != nil {
			t.Fatal(err)
		}
		got, epoch, err := server.Open(dgram)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if epoch != Epoch1RTT || !bytes.Equal(got, frame) {
			t.Fatalf("open %d: epoch %d frame %q", i, epoch, got)
		}
	}
	// and the reverse direction uses independent keys
	dgram, err := server.SealAppend(nil, 42, []byte("reply"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Open(dgram); err != nil {
		t.Fatalf("reverse open: %v", err)
	}
}

func TestSessionRejectsTamperAndReplay(t *testing.T) {
	client, server := handshakePair(t)
	dgram, err := client.SealAppend(nil, 7, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	// any flipped bit — prefix (AAD) or ciphertext — must fail
	for i := 1; i < len(dgram); i++ {
		bad := append([]byte{}, dgram...)
		bad[i] ^= 0x20
		_, _, err := server.Open(bad)
		if err == nil {
			t.Fatalf("tampered byte %d opened", i)
		}
		// Past the version and epoch bytes every flip is the AEAD's to
		// catch, and it surfaces as our error, not the stdlib's.
		if i >= 2 && err != ErrAuth {
			t.Fatalf("tampered byte %d: got %v, want ErrAuth", i, err)
		}
	}

	// the original still opens (tamper rejections must not advance the
	// replay window)...
	first := append([]byte{}, dgram...)
	if _, _, err := server.Open(first); err != nil {
		t.Fatalf("original after tamper attempts: %v", err)
	}
	// ...but only once
	if _, _, err := server.Open(append([]byte{}, dgram...)); err != ErrReplay {
		t.Fatalf("replay: got %v, want ErrReplay", err)
	}
}

func TestSessionReplayWindow(t *testing.T) {
	client, server := handshakePair(t)
	var dgrams [][]byte
	for i := 0; i < 70; i++ {
		d, err := client.SealAppend(nil, 1, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		dgrams = append(dgrams, d)
	}
	// deliver out of order: newest first, then the tail in reverse
	if _, _, err := server.Open(append([]byte{}, dgrams[69]...)); err != nil {
		t.Fatal(err)
	}
	for i := 68; i > 69-64; i-- {
		if _, _, err := server.Open(append([]byte{}, dgrams[i]...)); err != nil {
			t.Fatalf("in-window seq %d: %v", i, err)
		}
	}
	// beyond the 64-deep window: refused even though never seen
	if _, _, err := server.Open(append([]byte{}, dgrams[2]...)); err != ErrReplay {
		t.Fatalf("below window: got %v, want ErrReplay", err)
	}
}

// sealN seals n one-byte-tagged frames and returns the datagrams.
func sealN(t *testing.T, s *Session, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		d, err := s.SealAppend(nil, 1, []byte{0xF0, byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func mustOpen(t *testing.T, s *Session, d []byte, wantEpoch uint8) {
	t.Helper()
	_, epoch, err := s.Open(append([]byte{}, d...))
	if err != nil || epoch != wantEpoch {
		t.Fatalf("open: epoch %d err %v, want epoch %d", epoch, err, wantEpoch)
	}
}

// (a) A stream crossing keyUpdateInterval opens in order on the peer,
// and the sealer's epoch advances exactly at the boundary.
func TestKeyUpdateInOrder(t *testing.T) {
	client, server := handshakePair(t)
	client.tx.seq = keyUpdateInterval - 5
	for i := 0; i < 10; i++ {
		frame := []byte{byte(i), 1, 2, 3}
		d, err := client.SealAppend(nil, 7, frame)
		if err != nil {
			t.Fatal(err)
		}
		wantEpoch := uint8(Epoch1RTT)
		if i >= 5 {
			wantEpoch = Epoch1RTT + 1
		}
		if client.SendEpoch() != wantEpoch {
			t.Fatalf("datagram %d: SendEpoch %d, want %d", i, client.SendEpoch(), wantEpoch)
		}
		got, epoch, err := server.Open(d)
		if err != nil || epoch != wantEpoch || !bytes.Equal(got, frame) {
			t.Fatalf("datagram %d: epoch %d err %v frame %x", i, epoch, err, got)
		}
	}
	if client.tx.seq != 5 {
		t.Fatalf("sequence did not restart with the new key: %d", client.tx.seq)
	}
	// The other direction has not moved: each ratchets on its own.
	if server.SendEpoch() != Epoch1RTT {
		t.Fatalf("reverse direction ratcheted too: epoch %d", server.SendEpoch())
	}
	mustOpen(t, client, sealN(t, server, 1)[0], Epoch1RTT)
}

// (b) Reordering across the boundary: the tail of generation g arrives
// after the head of g+1. Everything opens once; replays of either
// generation are refused.
func TestKeyUpdateReordered(t *testing.T) {
	client, server := handshakePair(t)
	client.tx.seq = keyUpdateInterval - 4
	ds := sealN(t, client, 8) // 0..3 generation 0, 4..7 generation 1
	order := []int{0, 4, 5, 2, 1, 6, 3, 7}
	for _, i := range order {
		want := uint8(Epoch1RTT)
		if i >= 4 {
			want++
		}
		mustOpen(t, server, ds[i], want)
	}
	for i, d := range ds {
		if _, _, err := server.Open(append([]byte{}, d...)); err != ErrReplay {
			t.Fatalf("replay of datagram %d: got %v, want ErrReplay", i, err)
		}
	}
}

// (c) A forgery naming current+1 fails authentication and promotes
// nothing; the genuine next-generation datagram after it still opens,
// and so does the current generation.
func TestKeyUpdateForgedNextEpoch(t *testing.T) {
	client, server := handshakePair(t)
	client.tx.seq = keyUpdateInterval - 1
	ds := sealN(t, client, 2) // one of each generation
	forged := append([]byte{}, ds[0]...)
	forged[1] = Epoch1RTT + 1
	if _, _, err := server.Open(forged); err != ErrAuth {
		t.Fatalf("forged next-epoch datagram: got %v, want ErrAuth", err)
	}
	if server.cur.epoch != Epoch1RTT || server.prev.aead != nil {
		t.Fatal("a forgery promoted the next generation")
	}
	mustOpen(t, server, ds[0], Epoch1RTT)
	mustOpen(t, server, ds[1], Epoch1RTT+1)
	if server.cur.epoch != Epoch1RTT+1 || server.prev.epoch != Epoch1RTT {
		t.Fatalf("after a genuine open: cur %d prev %d", server.cur.epoch, server.prev.epoch)
	}
}

// (d) Epochs this session cannot have keys for are refused before the
// bytes are touched.
func TestKeyUpdateUnknownEpoch(t *testing.T) {
	client, server := handshakePair(t)
	d := sealN(t, client, 1)[0]
	for _, epoch := range []uint8{Epoch0RTT, Epoch1RTT + 2, 255} {
		bad := append([]byte{}, d...)
		bad[1] = epoch
		want := append([]byte{}, bad...)
		if _, _, err := server.Open(bad); err != ErrNoKeys {
			t.Fatalf("epoch %d: got %v, want ErrNoKeys", epoch, err)
		}
		if !bytes.Equal(bad, want) {
			t.Fatalf("epoch %d: refused datagram was modified", epoch)
		}
	}
	mustOpen(t, server, d, Epoch1RTT)
}

// (e) The epoch byte wraps 255 -> 1, skipping 0 (0-RTT's), and the
// previous generation stays open across the wrap.
func TestKeyUpdateEpochWraps(t *testing.T) {
	var k Keys
	k.Key[0], k.IV[0] = 0x55, 0xAA
	tx, rx := NewSession(), NewSession()
	tx.SetSendKeys(255, k)
	rx.SetRecvKeys(255, k)
	tx.tx.seq = keyUpdateInterval - 1
	ds := sealN(t, tx, 2)
	if ds[0][1] != 255 || ds[1][1] != 1 || tx.SendEpoch() != 1 {
		t.Fatalf("epoch bytes %d, %d, SendEpoch %d; want 255, 1, 1", ds[0][1], ds[1][1], tx.SendEpoch())
	}
	mustOpen(t, rx, ds[1], 1)
	mustOpen(t, rx, ds[0], 255)
}

// TestSealInPlace seals a frame lying where its own ciphertext goes, the
// way the UDP driver seals: the datagram equals sealing a copy, stays in
// the caller's buffer, and opens to the frame.
func TestSealInPlace(t *testing.T) {
	c2s, _ := SessionKeys(bytes.Repeat([]byte{7}, 32), TranscriptHash([]byte("connect"), []byte("accept")))
	inPlace, copied, server := NewSession(), NewSession(), NewSession()
	inPlace.SetSendKeys(Epoch1RTT, c2s)
	copied.SetSendKeys(Epoch1RTT, c2s)
	server.SetRecvKeys(Epoch1RTT, c2s)
	buf := make([]byte, 2048)
	for n := 1; n <= 1500; n++ {
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(n + 31*i)
		}
		copy(buf[packet.SealedHeaderLen:], frame)
		got, err := inPlace.SealAppend(buf[:0], 9, buf[packet.SealedHeaderLen:packet.SealedHeaderLen+n])
		if err != nil {
			t.Fatal(err)
		}
		want, err := copied.SealAppend(nil, 9, frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d B: sealed in place differs from sealing a copy", n)
		}
		if &got[0] != &buf[0] || cap(got) != cap(buf) {
			t.Fatalf("%d B: the datagram left the caller's buffer", n)
		}
		inner, _, err := server.Open(got)
		if err != nil || !bytes.Equal(inner, frame) {
			t.Fatalf("%d B: open: %v", n, err)
		}
	}
}

// The interface call must not cost an allocation per datagram: the
// nonce scratch lives in the Session. Checked on both sides of a
// generation boundary (the crossing itself derives keys and builds an
// AEAD, once per keyUpdateInterval datagrams, and is kept out of the
// measured runs).
func TestSealOpenZeroAlloc(t *testing.T) {
	client, server := handshakePair(t)
	frame := make([]byte, 1400)
	const runs = 50
	buf := make([]byte, 0, len(frame)+packet.SealedOverhead)
	boxes := make([][]byte, 0, 2*(runs+1))
	measure := func(gen string) {
		t.Helper()
		if n := testing.AllocsPerRun(runs, func() {
			var err error
			if buf, err = client.SealAppend(buf[:0], 9, frame); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%s: SealAppend allocates %v per datagram", gen, n)
		}
		boxes = boxes[:0]
		for i := 0; i < runs+1; i++ { // AllocsPerRun adds a warm-up call
			boxes = append(boxes, sealN(t, client, 1)[0])
		}
		i := 0
		if n := testing.AllocsPerRun(runs, func() {
			if _, _, err := server.Open(boxes[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Fatalf("%s: Open allocates %v per datagram", gen, n)
		}
	}
	measure("generation 0")
	client.tx.seq = keyUpdateInterval
	mustOpen(t, server, sealN(t, client, 1)[0], Epoch1RTT+1)
	measure("generation 1")
	if client.SendEpoch() != Epoch1RTT+1 || server.cur.epoch != Epoch1RTT+1 {
		t.Fatal("the boundary was not crossed")
	}
}

func TestEarlyKeysFlow(t *testing.T) {
	var secret [KeyLen]byte
	for i := range secret {
		secret[i] = byte(i * 3)
	}
	connectHash := ConnectHash([]byte("the new connect payload"))

	client := NewSession()
	client.SetSendKeys(Epoch0RTT, EarlyKeys(secret, connectHash))
	server := NewSession()
	server.SetRecvKeys(Epoch0RTT, EarlyKeys(secret, connectHash))

	d, err := client.SealAppend(nil, 9, []byte("zero rtt data"))
	if err != nil {
		t.Fatal(err)
	}
	frame, epoch, err := server.Open(d)
	if err != nil || epoch != Epoch0RTT || string(frame) != "zero rtt data" {
		t.Fatalf("early open: %v epoch=%d %q", err, epoch, frame)
	}

	// keys bound to a different Connect payload must not open
	other := NewSession()
	other.SetRecvKeys(Epoch0RTT, EarlyKeys(secret, ConnectHash([]byte("different connect"))))
	d2, _ := client.SealAppend(nil, 9, []byte("zero rtt data"))
	if _, _, err := other.Open(d2); err == nil {
		t.Fatal("early data opened under keys bound to a different Connect")
	}

	// epoch the receiver has no keys for
	noKeys := NewSession()
	d3, _ := client.SealAppend(nil, 9, []byte("x"))
	if _, _, err := noKeys.Open(d3); err != ErrNoKeys {
		t.Fatalf("keyless open: got %v, want ErrNoKeys", err)
	}
}

// FuzzOpen corruption-fuzzes Session.Open, seeded with honestly sealed
// datagrams in the 0-RTT epoch and the current and next 1-RTT
// generations. Deterministic keys and a fresh opener per
// run keep replay state out of the picture; if a mutated input ever
// opens, it must be byte-identical to what the sealer itself produces
// for the recovered frame and sequence — anything else is a forgery.
func FuzzOpen(f *testing.F) {
	var k1, k0 Keys
	for i := range k1.Key {
		k1.Key[i] = byte(i)
		k0.Key[i] = byte(i) ^ 0xFF
	}
	k1.IV[0], k0.IV[0] = 1, 2

	seedSealer := func(epoch uint8, k Keys, frame []byte, seq int) []byte {
		s := NewSession()
		s.SetSendKeys(epoch, k)
		var d []byte
		for i := 0; i <= seq; i++ {
			var err error
			d, err = s.SealAppend(nil, 0xDEADBEEF, frame)
			if err != nil {
				f.Fatal(err)
			}
		}
		return d
	}
	f.Add(seedSealer(Epoch1RTT, k1, []byte("an inner frame of reasonable length padding padding"), 0))
	f.Add(seedSealer(Epoch1RTT, k1, bytes.Repeat([]byte{0x42}, 1400), 3))
	f.Add(seedSealer(Epoch0RTT, k0, []byte("zero rtt first flight"), 0))
	f.Add(seedSealer(Epoch0RTT, k0, []byte{}, 0))
	f.Add([]byte{packet.Version<<4 | byte(packet.TypeSealed), 0, 0, 0})
	f.Add(seedSealer(Epoch1RTT+1, nextKeys(k1), []byte("sealed after the first key update"), 1))
	forged := seedSealer(Epoch1RTT, k1, []byte("names the next generation, sealed under this one"), 0)
	forged[1] = Epoch1RTT + 1
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSession()
		s.SetRecvKeys(Epoch1RTT, k1)
		s.SetRecvKeys(Epoch0RTT, k0)
		cp := append([]byte{}, data...)
		frame, epoch, err := s.Open(cp)
		if err != nil {
			return
		}
		// It opened: re-seal the recovered frame at the recovered
		// sequence and demand byte equality with the input.
		cid, _, seq, _, perr := packet.ParseSealedHeader(data)
		if perr != nil {
			t.Fatalf("opened but prefix does not parse: %v", perr)
		}
		re := NewSession()
		var k Keys
		switch epoch {
		case Epoch0RTT:
			k = k0
		case Epoch1RTT:
			k = k1
		case Epoch1RTT + 1:
			k = nextKeys(k1)
		default:
			t.Fatalf("opened under epoch %d, which a fresh session has no keys for", epoch)
		}
		re.SetSendKeys(epoch, k)
		re.tx.seq = seq
		resealed, err := re.SealAppend(nil, cid, frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resealed, data) {
			t.Fatalf("accepted datagram is not an honest sealing:\n  in %x\n  re %x", data, resealed)
		}
	})
}
