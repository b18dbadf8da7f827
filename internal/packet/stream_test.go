package packet

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/seqspace"
)

func TestStreamInfoRoundTrip(t *testing.T) {
	cases := []StreamInfo{
		{ID: 0, Seq: 1, Mode: StreamReliableOrdered, AckFloor: 90},
		{ID: 3, Seq: 0xfffffffe, Mode: StreamReliableUnordered, AckFloor: 100},
		{ID: 17, Seq: 7, Mode: StreamExpiring, DeadlineMS: 150, AckFloor: 42},
	}
	for _, in := range cases {
		hdrSeq := seqspace.Seq(100)
		enc := in.AppendTo(nil, hdrSeq)
		enc = append(enc, "payload"...)
		var out StreamInfo
		rest, err := out.Parse(enc, hdrSeq)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
		if string(rest) != "payload" {
			t.Fatalf("rest = %q", rest)
		}
	}
}

// TestStreamInfoAckFloorWrap pins the delta encoding of the ack floor
// across the 32-bit sequence wrap: a floor just below the wrap point
// must survive a header sequence just above it.
func TestStreamInfoAckFloorWrap(t *testing.T) {
	hdrSeq := seqspace.Seq(5) // wrapped past 2^32
	in := StreamInfo{ID: 1, Seq: 9, Mode: StreamReliableOrdered, AckFloor: 0xfffffff0}
	enc := in.AppendTo(nil, hdrSeq)
	var out StreamInfo
	if _, err := out.Parse(enc, hdrSeq); err != nil {
		t.Fatal(err)
	}
	if out.AckFloor != in.AckFloor {
		t.Fatalf("AckFloor = %d, want %d", out.AckFloor, in.AckFloor)
	}
}

func TestStreamInfoProperty(t *testing.T) {
	f := func(id uint32, seq, floorDelta uint32, mode uint8, deadline uint32) bool {
		hdrSeq := seqspace.Seq(seq) // floor encoded relative to header seq
		in := StreamInfo{
			ID:       uint64(id),
			Seq:      seqspace.Seq(seq),
			Mode:     StreamMode(mode % streamModeMax),
			AckFloor: hdrSeq - seqspace.Seq(floorDelta),
		}
		if in.Mode == StreamExpiring {
			in.DeadlineMS = deadline
		}
		enc := in.AppendTo(nil, hdrSeq)
		var out StreamInfo
		rest, err := out.Parse(enc, hdrSeq)
		return err == nil && len(rest) == 0 && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamAckTailRoundTrip(t *testing.T) {
	fb := Feedback{
		XRecv: 123456, LossRate: 0.01, SACK: SACK{CumAck: 99,
			Blocks:  []SACKBlock{{Lo: 110, Hi: 120}},
			Streams: []StreamAck{{ID: 0, CumAck: 50}, {ID: 7, CumAck: 0xfffffff0}}},
	}
	enc, err := fb.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Feedback
	if err := out.Parse(enc); err != nil {
		t.Fatal(err)
	}
	if len(out.Streams) != 2 || out.Streams[0] != fb.Streams[0] || out.Streams[1] != fb.Streams[1] {
		t.Fatalf("stream tail mismatch: %+v", out.Streams)
	}

	s := SACK{CumAck: 7, Blocks: []SACKBlock{{Lo: 9, Hi: 12}},
		Streams: []StreamAck{{ID: 3, CumAck: 44}}}
	enc, err = s.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sOut SACK
	if err := sOut.Parse(enc); err != nil {
		t.Fatal(err)
	}
	if len(sOut.Streams) != 1 || sOut.Streams[0] != s.Streams[0] {
		t.Fatalf("stream tail mismatch: %+v", sOut.Streams)
	}
}

// TestStreamAckTailAbsentIsLegacy pins wire compatibility: a frame with
// no stream tail encodes byte-identically to the pre-stream format, and
// a legacy frame parses with an empty tail.
func TestStreamAckTailAbsentIsLegacy(t *testing.T) {
	fb := Feedback{XRecv: 1, SACK: SACK{CumAck: 2, Blocks: []SACKBlock{{Lo: 5, Hi: 8}}}}
	enc, err := fb.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := feedbackFixedLen + 8; len(enc) != want {
		t.Fatalf("legacy encoding grew: %d bytes, want %d", len(enc), want)
	}
	var out Feedback
	if err := out.Parse(enc); err != nil {
		t.Fatal(err)
	}
	if len(out.Streams) != 0 {
		t.Fatalf("phantom stream tail: %+v", out.Streams)
	}
}

func TestHandshakeMaxStreamsTLV(t *testing.T) {
	in := Handshake{Reliability: ReliabilityFull, MSS: 1400, MaxStreams: 16}
	enc, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Handshake
	if err := out.Parse(enc); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(&in) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	// Zero MaxStreams drops the 4-byte TLV entirely.
	in.MaxStreams = 0
	enc2, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc2) != len(enc)-4 {
		t.Fatalf("zero MaxStreams should drop the TLV: %d vs %d bytes", len(enc2), len(enc))
	}
}

// FuzzFrame fuzzes whole frames — fixed header plus typed payload,
// including the multi-stream extensions (data-frame stream prefix,
// per-stream ack tails) — and requires every decodable input to
// re-encode to a parseable equivalent. CI runs it as a smoke leg on
// every push so wire-format changes are always fuzzed.
func FuzzFrame(f *testing.F) {
	// Seed: legacy data frame.
	legacy := Header{Type: TypeData, ConnID: 1, Seq: 10, PayloadLen: 4}
	f.Add(append(legacy.AppendTo(nil), "data"...))
	// Seed: multi-stream data frame with an expiring-stream prefix.
	si := StreamInfo{ID: 3, Seq: 55, Mode: StreamExpiring, DeadlineMS: 200, AckFloor: 95}
	sp := si.AppendTo(nil, 100)
	hdr := Header{Type: TypeData, Flags: FlagStream, ConnID: 2, Seq: 100,
		PayloadLen: uint16(len(sp) + 4)}
	f.Add(append(append(hdr.AppendTo(nil), sp...), "data"...))
	// Seed: unordered-stream prefix, retransmit flag.
	si2 := StreamInfo{ID: 1, Seq: 7, Mode: StreamReliableUnordered, AckFloor: 40}
	sp2 := si2.AppendTo(nil, 41)
	hdr2 := Header{Type: TypeData, Flags: FlagStream | FlagRetransmit, ConnID: 9,
		Seq: 41, PayloadLen: uint16(len(sp2) + 2)}
	f.Add(append(append(hdr2.AppendTo(nil), sp2...), "ab"...))
	// Seed: feedback with SACK blocks and a stream ack tail.
	fb := Feedback{XRecv: 1 << 20, LossRate: 0.02, SACK: SACK{CumAck: 90,
		Blocks:  []SACKBlock{{Lo: 95, Hi: 99}},
		Streams: []StreamAck{{ID: 0, CumAck: 40}, {ID: 3, CumAck: 77}}}}
	fbPay, _ := fb.AppendTo(nil)
	fbHdr := Header{Type: TypeFeedback, ConnID: 4, PayloadLen: uint16(len(fbPay))}
	f.Add(append(fbHdr.AppendTo(nil), fbPay...))
	// Seed: light SACK with a stream ack tail.
	sk := SACK{CumAck: 11, Blocks: []SACKBlock{{Lo: 13, Hi: 15}},
		Streams: []StreamAck{{ID: 2, CumAck: 6}}}
	skPay, _ := sk.AppendTo(nil)
	skHdr := Header{Type: TypeSACK, ConnID: 5, PayloadLen: uint16(len(skPay))}
	f.Add(append(skHdr.AppendTo(nil), skPay...))
	// Seed: handshake with the streams capability.
	hs := Handshake{Reliability: ReliabilityPartial, ReliabilityParam: 150,
		MSS: 1400, ConnID: 12, MaxStreams: 8}
	hsPay, _ := hs.AppendTo(nil)
	hsHdr := Header{Type: TypeConnect, ConnID: 6, PayloadLen: uint16(len(hsPay))}
	f.Add(append(hsHdr.AppendTo(nil), hsPay...))
	// Seed: stateless retry with a realistic-shape token and a hint.
	tok := testToken()
	rt := Retry{Token: tok, RetryAfterMS: 500}
	rtPay, _ := rt.AppendTo(nil)
	rtHdr := Header{Type: TypeRetry, ConnID: 13, PayloadLen: uint16(len(rtPay))}
	f.Add(append(rtHdr.AppendTo(nil), rtPay...))
	// Seed: connect echoing a token back (the post-retry handshake).
	hsTok := Handshake{Reliability: ReliabilityFull, MSS: 1200, ConnID: 14, Token: tok}
	hsTokPay, _ := hsTok.AppendTo(nil)
	hsTokHdr := Header{Type: TypeConnect, ConnID: 14, PayloadLen: uint16(len(hsTokPay))}
	f.Add(append(hsTokHdr.AppendTo(nil), hsTokPay...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		payload, err := h.Parse(data)
		if err != nil {
			return
		}
		if re := h.AppendTo(nil); !bytes.Equal(re, data[:HeaderLen]) {
			t.Fatalf("header re-encode mismatch:\n in=%x\nout=%x", data[:HeaderLen], re)
		}
		switch h.Type {
		case TypeData:
			if h.Flags&FlagStream == 0 {
				return
			}
			var si StreamInfo
			rest, err := si.Parse(payload, h.Seq)
			if err != nil {
				return
			}
			re := si.AppendTo(nil, h.Seq)
			var si2 StreamInfo
			rest2, err := si2.Parse(re, h.Seq)
			if err != nil || len(rest2) != 0 {
				t.Fatalf("stream prefix re-parse failed: %v", err)
			}
			if si2 != si {
				t.Fatalf("stream prefix mismatch:\n in=%+v\nout=%+v", si, si2)
			}
			_ = rest
		case TypeFeedback:
			var fb Feedback
			if err := fb.Parse(payload); err != nil {
				return
			}
			if math.IsNaN(fb.LossRate) {
				return // float32 NaN payloads do not round-trip bit-exactly
			}
			re, err := fb.AppendTo(nil)
			if err != nil {
				t.Fatalf("feedback re-encode: %v", err)
			}
			var fb2 Feedback
			if err := fb2.Parse(re); err != nil {
				t.Fatalf("feedback re-parse: %v", err)
			}
			if fb2.CumAck != fb.CumAck || len(fb2.Blocks) != len(fb.Blocks) ||
				len(fb2.Streams) != len(fb.Streams) {
				t.Fatalf("feedback mismatch:\n in=%+v\nout=%+v", fb, fb2)
			}
		case TypeSACK:
			var s SACK
			if err := s.Parse(payload); err != nil {
				return
			}
			re, err := s.AppendTo(nil)
			if err != nil {
				t.Fatalf("sack re-encode: %v", err)
			}
			var s2 SACK
			if err := s2.Parse(re); err != nil {
				t.Fatalf("sack re-parse: %v", err)
			}
			if s2.CumAck != s.CumAck || len(s2.Blocks) != len(s.Blocks) ||
				len(s2.Streams) != len(s.Streams) {
				t.Fatalf("sack mismatch:\n in=%+v\nout=%+v", s, s2)
			}
		case TypeConnect, TypeAccept:
			var hs Handshake
			if err := hs.Parse(payload); err != nil {
				return
			}
			re, err := hs.AppendTo(nil)
			if err != nil {
				t.Fatalf("handshake re-encode: %v", err)
			}
			var hs2 Handshake
			if err := hs2.Parse(re); err != nil {
				t.Fatalf("handshake re-parse: %v", err)
			}
			if !hs2.Equal(&hs) {
				t.Fatalf("handshake mismatch:\n in=%+v\nout=%+v", hs, hs2)
			}
		case TypeRetry:
			var r Retry
			if err := r.Parse(payload); err != nil {
				return
			}
			if len(r.Token) == 0 {
				t.Fatalf("retry parsed with no token: %+v", r)
			}
			re, err := r.AppendTo(nil)
			if err != nil {
				t.Fatalf("retry re-encode: %v", err)
			}
			var r2 Retry
			if err := r2.Parse(re); err != nil {
				t.Fatalf("retry re-parse: %v", err)
			}
			if !bytes.Equal(r2.Token, r.Token) || r2.RetryAfterMS != r.RetryAfterMS {
				t.Fatalf("retry mismatch:\n in=%+v\nout=%+v", r, r2)
			}
		}
	})
}

func TestStreamResetRoundTrip(t *testing.T) {
	cases := []StreamReset{
		{ID: 0, Mode: StreamExpiring, FinSeq: 1, DeadlineMS: 150},
		{ID: 3, Mode: StreamExpiring, FinSeq: 0xfffffffe, DeadlineMS: 1},
		{ID: 1 << 40, Mode: StreamReliableOrdered, FinSeq: 0, DeadlineMS: 0xffffffff},
	}
	for _, in := range cases {
		enc := in.AppendTo(nil)
		var out StreamReset
		if err := out.Parse(enc); err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	}
}

// TestStreamResetMalformed pins the decoder's rejections: truncation at
// every boundary, and a mode byte outside the known delivery modes.
func TestStreamResetMalformed(t *testing.T) {
	good := (&StreamReset{ID: 7, Mode: StreamExpiring, FinSeq: 42, DeadlineMS: 99}).AppendTo(nil)
	for n := 0; n < len(good); n++ {
		var sr StreamReset
		if err := sr.Parse(good[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes parsed", n, len(good))
		}
	}
	bad := append([]byte(nil), good...)
	bad[1] = streamModeMax // mode byte follows the 1-byte varint ID
	var sr StreamReset
	if err := sr.Parse(bad); err == nil {
		t.Fatal("unknown stream mode parsed")
	}
}

// TestHandshakeCongestionTLV pins the congestion-capability TLV and its
// legacy-compat contract: CongestionBBR rides a 3-byte TLV that
// round-trips, and the zero value (the TFRC family) emits no TLV at
// all — a TFRC handshake is byte-identical to one from a build that
// predates pluggable congestion control.
func TestHandshakeCongestionTLV(t *testing.T) {
	in := Handshake{Reliability: ReliabilityFull, MSS: 1400, Congestion: CongestionBBR}
	enc, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Handshake
	if err := out.Parse(enc); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(&in) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	// TFRC (zero) drops the 3-byte TLV: legacy wire, byte for byte.
	in.Congestion = CongestionTFRC
	legacy, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != len(enc)-3 {
		t.Fatalf("zero Congestion should drop the TLV: %d vs %d bytes", len(legacy), len(enc))
	}
	pre := Handshake{Reliability: ReliabilityFull, MSS: 1400}
	preEnc, err := pre.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(legacy) != string(preEnc) {
		t.Fatal("TFRC handshake is not byte-identical to the pre-TLV encoding")
	}
}
