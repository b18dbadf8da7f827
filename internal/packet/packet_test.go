package packet

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/seqspace"
)

func TestHeaderRoundTrip(t *testing.T) {
	in := Header{
		Type:       TypeData,
		Flags:      FlagFIN | FlagRetransmit,
		ConnID:     0xdeadbeef,
		Seq:        42,
		Timestamp:  123456789,
		TSEcho:     987654321,
		RTTUS:      42_000,
		PayloadLen: 3,
	}
	buf := in.AppendTo(nil)
	buf = append(buf, 'a', 'b', 'c')
	var out Header
	payload, err := out.Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if string(payload) != "abc" {
		t.Fatalf("payload = %q, want abc", payload)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(typ uint8, flags uint8, conn, seq, ts, echo uint32, pl []byte) bool {
		if len(pl) > math.MaxUint16 {
			pl = pl[:math.MaxUint16]
		}
		in := Header{
			Type:       Type(typ%uint8(typeMax-2)) + 1, // any header type; TypeSealed has its own layout
			Flags:      flags,
			ConnID:     conn,
			Seq:        seqspace.Seq(seq),
			Timestamp:  ts,
			TSEcho:     echo,
			PayloadLen: uint16(len(pl)),
		}
		buf := in.AppendTo(nil)
		buf = append(buf, pl...)
		var out Header
		got, err := out.Parse(buf)
		return err == nil && out == in && bytes.Equal(got, pl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderErrors(t *testing.T) {
	var h Header
	if _, err := h.Parse(make([]byte, HeaderLen-1)); err != ErrShort {
		t.Errorf("short: got %v", err)
	}
	good := (&Header{Type: TypeData}).AppendTo(nil)

	bad := append([]byte(nil), good...)
	bad[0] = 7<<4 | uint8(TypeData) // wrong version
	if _, err := h.Parse(bad); err == nil {
		t.Error("bad version accepted")
	}

	bad = append([]byte(nil), good...)
	bad[0] = Version<<4 | 0x0f // unknown type
	if _, err := h.Parse(bad); err == nil {
		t.Error("bad type accepted")
	}

	bad = append([]byte(nil), good...)
	bad[2], bad[3] = 0, 10 // claims 10 payload bytes that are not there
	if _, err := h.Parse(bad); err != ErrTruncated {
		t.Errorf("truncated: got %v", err)
	}
}

func TestFeedbackRoundTrip(t *testing.T) {
	in := Feedback{
		XRecv:    1_250_000,
		LossRate: 0.0123,
		SACK: SACK{
			ElapsedUS: 1500,
			CumAck:    1000,
			Blocks:    []SACKBlock{{Lo: 1002, Hi: 1005}, {Lo: 1008, Hi: 1010}},
		},
	}
	buf, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Feedback
	if err := out.Parse(buf); err != nil {
		t.Fatal(err)
	}
	if out.XRecv != in.XRecv || out.ElapsedUS != in.ElapsedUS || out.CumAck != in.CumAck {
		t.Fatalf("fixed fields mismatch: %+v vs %+v", in, out)
	}
	if math.Abs(out.LossRate-in.LossRate) > 1e-6 {
		t.Fatalf("loss rate %v -> %v", in.LossRate, out.LossRate)
	}
	if len(out.Blocks) != 2 || out.Blocks[0] != in.Blocks[0] || out.Blocks[1] != in.Blocks[1] {
		t.Fatalf("blocks mismatch: %v", out.Blocks)
	}
}

// TestReportIsVectorPlusRates pins docs/WIRE.md's claim that a report
// is the ack vector plus X_recv and p: after the fixed fields both
// frames carry the same bytes, and both parse to the same vector.
func TestReportIsVectorPlusRates(t *testing.T) {
	v := SACK{CumAck: 40, ElapsedUS: 250, Blocks: []SACKBlock{{Lo: 42, Hi: 45}},
		Streams: []StreamAck{{ID: 3, CumAck: 17}}}
	vec, err := v.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Feedback{XRecv: 5e5, LossRate: 0.25, SACK: v}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep[feedbackFixedLen:], vec[sackFixedLen:]) {
		t.Fatalf("report tail %x, vector tail %x", rep[feedbackFixedLen:], vec[sackFixedLen:])
	}
	var fb Feedback
	if err := fb.Parse(rep); err != nil {
		t.Fatal(err)
	}
	var sk SACK
	if err := sk.Parse(vec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fb.SACK, sk) || fb.XRecv != 5e5 || fb.LossRate != 0.25 {
		t.Fatalf("report %+v, vector %+v", fb, sk)
	}
}

func TestFeedbackNoBlocks(t *testing.T) {
	in := Feedback{XRecv: 1, LossRate: 0, SACK: SACK{CumAck: 7}}
	buf, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Feedback{SACK: SACK{Blocks: make([]SACKBlock, 0, 4)}}
	if err := out.Parse(buf); err != nil {
		t.Fatal(err)
	}
	if len(out.Blocks) != 0 {
		t.Fatalf("blocks = %v, want none", out.Blocks)
	}
}

func TestFeedbackTooManyBlocks(t *testing.T) {
	in := Feedback{SACK: SACK{Blocks: make([]SACKBlock, MaxSACKBlocks+1)}}
	if _, err := in.AppendTo(nil); err != ErrBlockCount {
		t.Errorf("encode: got %v, want ErrBlockCount", err)
	}
	// Decode side: forge a count that exceeds the limit.
	good, _ := (&Feedback{}).AppendTo(nil)
	good[feedbackFixedLen-1] = MaxSACKBlocks + 1
	var out Feedback
	if err := out.Parse(good); err != ErrBlockCount {
		t.Errorf("decode: got %v, want ErrBlockCount", err)
	}
}

func TestSACKRoundTrip(t *testing.T) {
	in := SACK{
		CumAck:    500,
		ElapsedUS: 250,
		Blocks:    []SACKBlock{{Lo: 502, Hi: 504}},
	}
	buf, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out SACK
	if err := out.Parse(buf); err != nil {
		t.Fatal(err)
	}
	if out.CumAck != in.CumAck || out.ElapsedUS != in.ElapsedUS ||
		len(out.Blocks) != 1 || out.Blocks[0] != in.Blocks[0] {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
}

func TestSACKTruncatedBlocks(t *testing.T) {
	in := SACK{CumAck: 1, Blocks: []SACKBlock{{Lo: 2, Hi: 3}, {Lo: 5, Hi: 6}}}
	buf, _ := in.AppendTo(nil)
	var out SACK
	if err := out.Parse(buf[:len(buf)-1]); err != ErrShort {
		t.Errorf("got %v, want ErrShort", err)
	}
}

func TestSACKParseReusesBlocks(t *testing.T) {
	in := SACK{CumAck: 1, Blocks: []SACKBlock{{Lo: 2, Hi: 3}}}
	buf, _ := in.AppendTo(nil)
	out := SACK{Blocks: make([]SACKBlock, 0, MaxSACKBlocks)}
	before := cap(out.Blocks)
	for i := 0; i < 10; i++ {
		if err := out.Parse(buf); err != nil {
			t.Fatal(err)
		}
	}
	if cap(out.Blocks) != before {
		t.Error("Parse should reuse block capacity")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	in := Handshake{
		Reliability:      ReliabilityPartial,
		ReliabilityParam: 250,
		FeedbackMode:     FeedbackSenderLoss,
		TargetRate:       750_000,
		MSS:              1460,
	}
	buf, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Handshake
	if err := out.Parse(buf); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(&in) {
		t.Fatalf("mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestHandshakeSkipsUnknownOption(t *testing.T) {
	in := Handshake{MSS: 1000}
	buf, _ := in.AppendTo(nil)
	// Append an unknown TLV and bump the count.
	buf[0]++
	buf = append(buf, 0xEE, 3, 1, 2, 3)
	var out Handshake
	if err := out.Parse(buf); err != nil {
		t.Fatal(err)
	}
	if out.MSS != 1000 {
		t.Fatalf("MSS = %d, want 1000", out.MSS)
	}
}

func TestHandshakeMalformed(t *testing.T) {
	var out Handshake
	if err := out.Parse(nil); err != ErrShort {
		t.Errorf("empty: got %v", err)
	}
	if err := out.Parse([]byte{1, optMSS}); err == nil {
		t.Error("truncated TLV header accepted")
	}
	if err := out.Parse([]byte{1, optMSS, 2, 0}); err == nil {
		t.Error("truncated TLV value accepted")
	}
	if err := out.Parse([]byte{1, optMSS, 1, 0}); err == nil {
		t.Error("wrong-length MSS accepted")
	}
}

func TestTypeString(t *testing.T) {
	if TypeData.String() != "data" || TypeSACK.String() != "sack" {
		t.Error("type names wrong")
	}
	if Type(99).String() == "" {
		t.Error("out-of-range type must still format")
	}
	if ReliabilityFull.String() != "full" || FeedbackSenderLoss.String() != "sender-loss" {
		t.Error("mode names wrong")
	}
}

func BenchmarkHeaderAppendParse(b *testing.B) {
	h := Header{Type: TypeData, ConnID: 1, Seq: 100, Timestamp: 5, PayloadLen: 0}
	buf := make([]byte, 0, 64)
	var out Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = h.AppendTo(buf[:0])
		if _, err := out.Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSACKAppendParse(b *testing.B) {
	s := SACK{CumAck: 9, Blocks: []SACKBlock{{Lo: 10, Hi: 12}, {Lo: 14, Hi: 16}, {Lo: 20, Hi: 30}}}
	buf := make([]byte, 0, 128)
	out := SACK{Blocks: make([]SACKBlock, 0, MaxSACKBlocks)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = s.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := out.Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}
