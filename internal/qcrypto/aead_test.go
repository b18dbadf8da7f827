package qcrypto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex: %v", err)
	}
	return b
}

// McGrew–Viega GCM specification, test case 16: AES-256, 96-bit IV,
// 60-byte plaintext, 20-byte additional data. Pins that NewAEAD is
// AES-256-GCM with a 16-byte tag and nothing else.
func TestAEADSealVector(t *testing.T) {
	key := unhex(t, "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308")
	nonce := unhex(t, "cafebabefacedbaddecaf888")
	aad := unhex(t, "feedfacedeadbeeffeedfacedeadbeefabaddad2")
	plaintext := unhex(t,
		"d9313225f88406e5a55909c5aff5269a"+
			"86a7a9531534f7da2e4c303d8a318a72"+
			"1c3c0c95956809532fcf0e2449a6b525"+
			"b16aedf5aa0de657ba637b39")
	wantCT := unhex(t,
		"522dc1f099567d07f47f37a32a84427d"+
			"643a8cdcbfe5c0c97598a2bd2555d1aa"+
			"8cb08e48590dbb3da7b08b1056828838"+
			"c5f61e6393ba7a0abcc9f662")
	wantTag := unhex(t, "76fc6ece0f4e1768cddf8853bb2d551b")

	a := NewAEAD(key)
	if a.NonceSize() != NonceLen || a.Overhead() != TagLen {
		t.Fatalf("nonce %d tag %d, want %d and %d", a.NonceSize(), a.Overhead(), NonceLen, TagLen)
	}
	got := a.Seal(nil, nonce, plaintext, aad)
	if !bytes.Equal(got[:len(got)-TagLen], wantCT) {
		t.Fatalf("ciphertext mismatch:\n got %x\nwant %x", got[:len(got)-TagLen], wantCT)
	}
	if !bytes.Equal(got[len(got)-TagLen:], wantTag) {
		t.Fatalf("tag mismatch: got %x want %x", got[len(got)-TagLen:], wantTag)
	}

	pt, err := a.Open(nil, nonce, got, aad)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !bytes.Equal(pt, plaintext) {
		t.Fatal("open returned wrong plaintext")
	}
}

// releasesNothing is the property a failed open keeps: whatever is
// left in the buffer the AEAD was told to decrypt into, it is not the
// plaintext. (The stdlib zeroes it, which this deliberately does not
// pin — only that nothing of the plaintext survives.)
func releasesNothing(t *testing.T, what string, buf, plaintext []byte) {
	t.Helper()
	if bytes.Contains(buf, plaintext[:8]) {
		t.Fatalf("%s: rejected open left plaintext in the buffer", what)
	}
}

// Every way of being wrong — any flipped bit, wrong AAD, wrong nonce,
// truncation — fails, and the in-place destination holds no plaintext
// afterwards.
func TestAEADRejects(t *testing.T) {
	key := make([]byte, 32)
	key[0] = 7
	a := NewAEAD(key)
	nonce := make([]byte, 12)
	aad := []byte("aad")
	plaintext := []byte("hello sealed world")
	box := a.Seal(nil, nonce, plaintext, aad)

	for i := 0; i < len(box); i++ {
		bad := append([]byte{}, box...)
		bad[i] ^= 0x40
		if _, err := a.Open(bad[:0], nonce, bad, aad); err == nil {
			t.Fatalf("flipping byte %d still opened", i)
		}
		releasesNothing(t, "flipped byte", bad, plaintext)
	}
	bad := append([]byte{}, box...)
	if _, err := a.Open(bad[:0], nonce, bad, []byte("axd")); err == nil {
		t.Fatal("wrong aad opened")
	}
	releasesNothing(t, "wrong aad", bad, plaintext)
	badNonce := append([]byte{}, nonce...)
	badNonce[5] ^= 1
	bad = append([]byte{}, box...)
	if _, err := a.Open(bad[:0], badNonce, bad, aad); err == nil {
		t.Fatal("wrong nonce opened")
	}
	releasesNothing(t, "wrong nonce", bad, plaintext)
	if _, err := a.Open(nil, nonce, box[:TagLen-1], aad); err == nil {
		t.Fatal("truncated box opened")
	}
}

// Open must work in place over the ciphertext buffer: that is how the
// endpoint decrypts receive-ring views without copying. A forged box
// opened the same way yields an error and a dead buffer — neither the
// plaintext nor, with this AEAD, the ciphertext is left to re-read.
func TestAEADOpenInPlace(t *testing.T) {
	key := make([]byte, 32)
	key[31] = 9
	a := NewAEAD(key)
	nonce := make([]byte, 12)
	plaintext := bytes.Repeat([]byte("0123456789"), 20)
	box := a.Seal(nil, nonce, plaintext, nil)
	forged := append([]byte{}, box...)
	forged[len(forged)-1] ^= 1

	pt, err := a.Open(box[:0], nonce, box, nil)
	if err != nil {
		t.Fatalf("open in place: %v", err)
	}
	if !bytes.Equal(pt, plaintext) {
		t.Fatal("in-place open returned wrong plaintext")
	}
	if &pt[0] != &box[0] {
		t.Fatal("in-place open copied instead of aliasing")
	}

	if pt, err := a.Open(forged[:0], nonce, forged, nil); err == nil || len(pt) != 0 {
		t.Fatalf("forged in-place open: %d bytes, err %v", len(pt), err)
	}
	releasesNothing(t, "forged tag", forged, plaintext)
}

// RFC 5869 appendix A test case 1 (SHA-256).
func TestHKDFVector(t *testing.T) {
	ikm := unhex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := unhex(t, "000102030405060708090a0b0c")
	info := unhex(t, "f0f1f2f3f4f5f6f7f8f9")
	prk := hkdfExtract(salt, ikm)
	wantPRK := unhex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	if !bytes.Equal(prk, wantPRK) {
		t.Fatalf("prk mismatch:\n got %x\nwant %x", prk, wantPRK)
	}
	okm := hkdfExpand(prk, info, 42)
	wantOKM := unhex(t,
		"3cb25f25faacd57a90434f64d0362f2a"+
			"2d2d0a90cf1a5a4c5db02d56ecc4c5bf"+
			"34007208d5b887185865")
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("okm mismatch:\n got %x\nwant %x", okm, wantOKM)
	}
}

// Sealing appends: bytes already in dst survive (SealAppend writes the
// sealed prefix into dst first and then seals behind it).
func TestSealAppendsToDst(t *testing.T) {
	key := make([]byte, 32)
	a := NewAEAD(key)
	nonce := make([]byte, 12)
	dst := make([]byte, 0, 256)
	dst = append(dst, 0xAA, 0xBB)
	box := a.Seal(dst, nonce, []byte("payload"), nil)
	if box[0] != 0xAA || box[1] != 0xBB {
		t.Fatal("Seal clobbered existing dst bytes")
	}
	pt, err := a.Open(nil, nonce, box[2:], nil)
	if err != nil || string(pt) != "payload" {
		t.Fatalf("open after append-seal: %v %q", err, pt)
	}
}

var sinkBox []byte

func BenchmarkSeal1400(b *testing.B) {
	key := make([]byte, 32)
	a := NewAEAD(key)
	nonce := make([]byte, 12)
	pt := make([]byte, 1400)
	aad := make([]byte, 12)
	buf := make([]byte, 0, 1500)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(nonce[4:], uint64(i))
		sinkBox = a.Seal(buf[:0], nonce, pt, aad)
	}
}

func BenchmarkOpen1400(b *testing.B) {
	key := make([]byte, 32)
	a := NewAEAD(key)
	nonce := make([]byte, 12)
	pt := make([]byte, 1400)
	aad := make([]byte, 12)
	box := a.Seal(nil, nonce, pt, aad)
	scratch := make([]byte, len(box))
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, box)
		if _, err := a.Open(scratch[:0], nonce, scratch, aad); err != nil {
			b.Fatal(err)
		}
	}
}
