package qcrypto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/packet"
)

// vectors are the conformance values for everything wire version 2
// fixes in this package: the key schedule, the sealed envelope and the
// key update. The first five are the inputs, the rest what they must
// produce. docs/WIRE.md prints the same block ("Test vectors") and
// TestVectorsMatchWireDoc keeps the two identical, so a change to any
// of them is a reviewed diff in both places. They were cross-checked
// once against an independent HKDF-SHA256 and AES-256-GCM.
var vectors = []struct{ name, hex string }{
	{"shared", "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b"},
	{"connect", "71747020766563746f7220636f6e6e656374207061796c6f6164"},
	{"accept", "71747020766563746f7220616363657074207061796c6f6164"},
	{"conn_id", "01020304"},
	{"frame", "240000000102030400000001000003e80000000000000000"},
	{"transcript", "416bbb1607669197c8855dec5a4b5af1ed5961d55babf1ae86a8add32558c3c9"},
	{"c2s_key", "4d3c51239bb309e2b3cc4573a507a1e0e0c2ea0b18c9ac6290be950f5d99adef"},
	{"c2s_iv", "6fe5a147cc4ba1f97e10ac66"},
	{"s2c_key", "93458ea4331d6c270e552411a5b1bf2df9df6432153c11ba85def84f948ecd11"},
	{"s2c_iv", "5292a4e10d230d5b813a354b"},
	{"resumption", "ce51782636957875cbe9e70b4c3fb050e43af089053c569cad1394766ab3a909"},
	{"early_key", "094a1c278429a7319a57e7100514b3f27a3ceb8516af8360f0dc105bcb07170c"},
	{"early_iv", "f20f957ed76e2595e284962c"},
	{"sealed_gen0", "2b0100000102030400000000278f5851e4b27ca2ee7f0c98c7a148db310c832d09458a7cd22f12f7e0d36b594ed49ea140404162"},
	{"c2s_gen1_key", "b00f075bee990de3181f4242f9345a07ee6ffae41ac278465ad905363d66c9e7"},
	{"c2s_gen1_iv", "b95e9a454d7bf76a4cee1fb3"},
	{"sealed_gen1", "2b02000001020304000000000e348972494404c55711edcbae8e63c09935f29c00ebf8c76707fed073f1c61c0154d3223ab46936"},
}

func vector(t *testing.T, name string) []byte {
	t.Helper()
	for _, v := range vectors {
		if v.name == name {
			return unhex(t, v.hex)
		}
	}
	t.Fatalf("no vector %q", name)
	return nil
}

// TestVectors checks every derived vector both ways: the package
// produces the literal bytes from the inputs, and the literal sealed
// datagrams open to the frame under the literal keys.
func TestVectors(t *testing.T) {
	check := func(name string, got []byte) {
		t.Helper()
		if want := vector(t, name); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", name, got, want)
		}
	}
	keys := func(name string) (k Keys) {
		copy(k.Key[:], vector(t, name+"_key"))
		copy(k.IV[:], vector(t, name+"_iv"))
		return k
	}
	checkKeys := func(name string, k Keys) {
		t.Helper()
		check(name+"_key", k.Key[:])
		check(name+"_iv", k.IV[:])
	}

	shared, connect, accept := vector(t, "shared"), vector(t, "connect"), vector(t, "accept")
	connID := binary.BigEndian.Uint32(vector(t, "conn_id"))
	// The inner frame is a bare data header; building it here puts
	// packet.Version under the vectors too.
	hdr := packet.Header{Type: packet.TypeData, ConnID: connID, Seq: 1, Timestamp: 1000}
	frame := hdr.AppendTo(nil)
	check("frame", frame)

	transcript := TranscriptHash(connect, accept)
	check("transcript", transcript)
	c2s, s2c := SessionKeys(shared, transcript)
	checkKeys("c2s", c2s)
	checkKeys("s2c", s2c)
	resumption := ResumptionSecret(shared, ConnectHash(connect))
	check("resumption", resumption[:])
	checkKeys("early", EarlyKeys(resumption, ConnectHash(connect)))
	checkKeys("c2s_gen1", nextKeys(c2s))

	// Seal: generation 0's first datagram, then generation 1's.
	client := NewSession()
	client.SetSendKeys(Epoch1RTT, keys("c2s"))
	gen0, err := client.SealAppend(nil, connID, frame)
	if err != nil {
		t.Fatal(err)
	}
	check("sealed_gen0", gen0)
	client.tx.seq = keyUpdateInterval
	gen1, err := client.SealAppend(nil, connID, frame)
	if err != nil {
		t.Fatal(err)
	}
	check("sealed_gen1", gen1)

	// Open: the literal bytes, in wire order, on a peer that holds only
	// generation 0 and must ratchet itself to read the second.
	server := NewSession()
	server.SetRecvKeys(Epoch1RTT, keys("c2s"))
	for i, name := range []string{"sealed_gen0", "sealed_gen1"} {
		got, epoch, err := server.Open(vector(t, name))
		if err != nil || epoch != uint8(Epoch1RTT+i) || !bytes.Equal(got, frame) {
			t.Errorf("open %s: epoch %d err %v frame %x", name, epoch, err, got)
		}
	}
	if server.cur.keys != keys("c2s_gen1") {
		t.Error("opener did not arrive at the generation-1 vector keys")
	}
}

// TestVectorsMatchWireDoc fails when docs/WIRE.md's "Test vectors"
// block and the literals above differ in any name, value or order.
func TestVectorsMatchWireDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Test vectors\n")
	if !ok {
		t.Fatal(`docs/WIRE.md has no "## Test vectors" section`)
	}
	_, block, ok := strings.Cut(section, "\n```\n")
	if ok {
		block, _, ok = strings.Cut(block, "\n```")
	}
	if !ok {
		t.Fatal("docs/WIRE.md: no fenced block under Test vectors")
	}
	var want strings.Builder
	for _, v := range vectors {
		fmt.Fprintf(&want, "%s = %s\n", v.name, v.hex)
	}
	if got := block + "\n"; got != want.String() {
		t.Fatalf("docs/WIRE.md test vectors differ from vectors_test.go\n--- WIRE.md\n%s--- vectors_test.go\n%s", got, want.String())
	}
}
