package packet

import (
	"errors"
	"testing"
)

func TestSealedHeaderRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 1<<32 - 1, 1 << 32, MaxSealedSeq} {
		b := AppendSealedHeader(nil, 0xCAFEBABE, 1, seq)
		if len(b) != SealedHeaderLen {
			t.Fatalf("prefix length %d", len(b))
		}
		b = append(b, make([]byte, SealedTagLen)...) // minimum box
		cid, epoch, gotSeq, box, err := ParseSealedHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		if cid != 0xCAFEBABE || epoch != 1 || gotSeq != seq || len(box) != SealedTagLen {
			t.Fatalf("round trip: cid=%x epoch=%d seq=%d", cid, epoch, gotSeq)
		}
	}
}

func TestSealedHeaderRejects(t *testing.T) {
	good := AppendSealedHeader(nil, 1, 1, 1)
	good = append(good, make([]byte, SealedTagLen)...)

	short := good[:SealedOverhead-1]
	if _, _, _, _, err := ParseSealedHeader(short); !errors.Is(err, ErrShort) {
		t.Fatalf("short: %v", err)
	}
	// The previous wire version (another suite and key schedule) and
	// the next are both refused at the first byte.
	for _, v := range []byte{Version - 1, Version + 1} {
		badVer := append([]byte{}, good...)
		badVer[0] = v<<4 | byte(TypeSealed)
		if _, _, _, _, err := ParseSealedHeader(badVer); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: %v", v, err)
		}
	}
	badType := append([]byte{}, good...)
	badType[0] = Version<<4 | byte(TypeData)
	if _, _, _, _, err := ParseSealedHeader(badType); !errors.Is(err, ErrType) {
		t.Fatalf("type: %v", err)
	}

	// ...and conversely Header.Parse must refuse a sealed datagram: the
	// layouts differ from byte 1 on, and every consumer of Header fields
	// would misread a sealed prefix.
	var h Header
	if _, err := h.Parse(good); !errors.Is(err, ErrType) {
		t.Fatalf("Header.Parse(sealed): %v", err)
	}
}

func TestSealedDemuxOffset(t *testing.T) {
	// The endpoint demux peeks the connection ID at bytes 4..8 without
	// knowing whether the datagram is sealed; both layouts must agree.
	h := Header{Type: TypeData, ConnID: 0x11223344}
	plain := h.AppendTo(nil)
	sealed := AppendSealedHeader(nil, 0x11223344, 1, 99)
	for i := 4; i < 8; i++ {
		if plain[i] != sealed[i] {
			t.Fatalf("ConnID offset diverges at byte %d", i)
		}
	}
}

// TestSealedSizing pins the MTU math: the largest frame the transport
// builds (fixed header + max stream prefix + DefaultMSS payload of
// 1400) still fits a 1500-byte Ethernet MTU minus IPv4/UDP overhead
// after the 28-byte sealing expansion. If DefaultMSS, the stream
// prefix, or SealedOverhead grows, this fails before the network
// silently fragments. (Over IPv4 the budget is 1472 and the sealed
// maximum is 1469; IPv6's extra 20 header bytes need an MSS of 1380
// or lower — negotiate MSS down on v6 paths, per docs/WIRE.md.)
func TestSealedSizing(t *testing.T) {
	const defaultMSS = 1400 // mirrors core.DefaultMSS; packet cannot import core
	const maxStreamPrefix = 17
	const ipv4UDPOverhead = 20 + 8
	wire := HeaderLen + maxStreamPrefix + defaultMSS + SealedOverhead
	if wire > 1500-ipv4UDPOverhead {
		t.Fatalf("sealed max frame %d exceeds MTU budget %d", wire, 1500-ipv4UDPOverhead)
	}
}
