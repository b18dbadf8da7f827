package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
)

func frame(t *testing.T, hdr packet.Header, payload []byte) []byte {
	t.Helper()
	hdr.PayloadLen = uint16(len(payload))
	return append(hdr.AppendTo(nil), payload...)
}

// TestLiarRewritesOnlyReports: the wire liar scales a classic report's
// X_recv up and p down by its factor and leaves everything else in the
// report as it was; data and SACK frames, and a frame it cannot parse,
// pass through as the same bytes.
func TestLiarRewritesOnlyReports(t *testing.T) {
	const factor = 4 // a power of two, so p/factor is exact in float32
	var out [][]byte
	l := liar{factor, netsim.HandlerFunc(func(p *netsim.Packet) {
		out = append(out, p.Payload.([]byte))
	})}
	send := func(f []byte) []byte {
		in := append([]byte(nil), f...)
		l.Recv(&netsim.Packet{Flow: 1, Size: len(f), Payload: f})
		got := out[len(out)-1]
		if !bytes.Equal(f, in) {
			t.Fatal("the liar wrote into the frame it was handed")
		}
		return got
	}
	blocks := []packet.SACKBlock{{Lo: 102, Hi: 105}, {Lo: 110, Hi: 112}}
	tail := []packet.StreamAck{{ID: 0, CumAck: 40}, {ID: 4, CumAck: 7}}
	hdr := packet.Header{ConnID: 9, Timestamp: 123456, TSEcho: 654321, RTTUS: 40000}
	fb := packet.Feedback{XRecv: 250_000, LossRate: 0.02, SACK: packet.SACK{
		ElapsedUS: 15, CumAck: 100, Blocks: blocks, Streams: tail}}
	payload, err := fb.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("passthrough", func(t *testing.T) {
		data := hdr
		data.Type, data.Seq = packet.TypeData, 77
		sack, _ := (&packet.SACK{CumAck: 100, ElapsedUS: 15, Blocks: blocks, Streams: tail}).AppendTo(nil)
		sackHdr := hdr
		sackHdr.Type = packet.TypeSACK
		short := hdr
		short.Type = packet.TypeFeedback
		for name, f := range map[string][]byte{
			"data":                      frame(t, data, []byte("payload bytes")),
			"data shaped like a report": frame(t, data, payload),
			"sack":                      frame(t, sackHdr, sack),
			"garbage":                   {1, 2, 3},
			"truncated feedback":        frame(t, short, []byte{0, 0, 0, 0, 1}),
			"feedback past blocks":      frame(t, short, append(make([]byte, 20), 3)),
		} {
			if got := send(f); !bytes.Equal(got, f) {
				t.Errorf("%s frame rewritten:\n in  %x\n out %x", name, f, got)
			}
		}
	})

	t.Run("feedback", func(t *testing.T) {
		fbHdr := hdr
		fbHdr.Type = packet.TypeFeedback
		in := frame(t, fbHdr, payload)
		var honest packet.Feedback
		if err := honest.Parse(payload); err != nil {
			t.Fatal(err)
		}

		got := send(in)
		var gotHdr packet.Header
		gotPayload, err := gotHdr.Parse(got)
		if err != nil {
			t.Fatal(err)
		}
		fbHdr.PayloadLen = uint16(len(payload))
		if gotHdr != fbHdr || len(got) != len(in) {
			t.Fatalf("header moved: %+v (%d B), want %+v (%d B)", gotHdr, len(got), fbHdr, len(in))
		}
		var lie packet.Feedback
		if err := lie.Parse(gotPayload); err != nil {
			t.Fatal(err)
		}
		if lie.XRecv != factor*honest.XRecv || lie.LossRate != honest.LossRate/factor {
			t.Errorf("X_recv %d, p %g; want %d, %g", lie.XRecv, lie.LossRate, factor*honest.XRecv, honest.LossRate/factor)
		}
		if lie.ElapsedUS != honest.ElapsedUS || lie.CumAck != honest.CumAck ||
			!reflect.DeepEqual(lie.Blocks, honest.Blocks) || !reflect.DeepEqual(lie.Streams, honest.Streams) {
			t.Errorf("the rest of the report moved:\n got  %+v\n want %+v", lie, honest)
		}
	})
}
