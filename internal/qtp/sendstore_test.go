package qtp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/seqspace"
)

// storeByte is byte off of stream id in TestRetransmissionCarriesFirstBytes:
// no two neighbouring offsets, and no two offsets a page apart, agree.
func storeByte(id uint64, off int) byte {
	return byte(off) ^ byte(off>>8)*3 ^ byte(off>>16)*5 ^ byte(id)*77
}

// storeBytes fills p with stream id's bytes from offset off.
func storeBytes(id uint64, off int, p []byte) []byte {
	for i := range p {
		p[i] = storeByte(id, off+i)
	}
	return p
}

// wireCheck reads every data frame the sender puts on the wire, before
// the lossy link. A first transmission of a stream must carry the
// stream's bytes from where the one before it ended; a retransmission
// must carry exactly what its first transmission did.
type wireCheck struct {
	t      *testing.T
	next   netsim.Handler
	off    map[uint64]int // per stream: offset of the next first transmission
	seg    map[uint64]map[seqspace.Seq][2]int
	retx   int
	frames int
}

func (w *wireCheck) Recv(pk *netsim.Packet) {
	w.next.Recv(pk)
	var hdr packet.Header
	payload, err := hdr.Parse(pk.Payload.([]byte))
	if err != nil || hdr.Type != packet.TypeData {
		return
	}
	id, seq := uint64(0), hdr.Seq
	if hdr.Flags&packet.FlagStream != 0 {
		var si packet.StreamInfo
		if payload, err = si.Parse(payload, hdr.Seq); err != nil {
			w.t.Fatalf("data frame %d: %v", hdr.Seq, err)
		}
		id, seq = si.ID, si.Seq
	}
	if w.seg[id] == nil {
		w.seg[id] = map[seqspace.Seq][2]int{}
	}
	w.frames++
	want := make([]byte, len(payload))
	if hdr.Flags&packet.FlagRetransmit == 0 {
		off := w.off[id]
		w.seg[id][seq] = [2]int{off, len(payload)}
		w.off[id] += len(payload)
		if !bytes.Equal(payload, storeBytes(id, off, want)) {
			w.t.Fatalf("stream %d segment %d: first transmission is not the stream's %d bytes at %d", id, seq, len(payload), off)
		}
		return
	}
	s, ok := w.seg[id][seq]
	if !ok {
		w.t.Fatalf("stream %d segment %d retransmitted before it was sent", id, seq)
	}
	w.retx++
	if len(payload) != s[1] || !bytes.Equal(payload, storeBytes(id, s[0], want)) {
		w.t.Fatalf("stream %d segment %d: retransmission carries %d B, not the %d B at %d it first carried", id, seq, len(payload), s[1], s[0])
	}
}

// TestRetransmissionCarriesFirstBytes checks that every retransmission
// carries the bytes its segment first carried, out of the one store a
// stream's bytes wait in from Write until they are acknowledged. Writes
// of uneven sizes land while earlier segments are still held, so
// segments cross page edges and the small first page of an emptied
// store; on an expiring stream some segments are abandoned, and the head
// passes them once the receiver skips their holes. A page handed back one
// segment early, or a segment cut one byte off, fails it.
func TestRetransmissionCarriesFirstBytes(t *testing.T) {
	const deadline = 120 * time.Millisecond // four round trips
	for _, tc := range []struct {
		name    string
		profile core.Profile
		second  bool // a second, expiring stream beside stream 0
	}{
		{"unprefixed-expiring", traceProfile(packet.ReliabilityPartial, packet.FeedbackSenderLoss, deadline), false},
		{"prefixed", withStreams(core.QTPAF(300_000), 4), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPath(5, 400_000, 15*time.Millisecond, netsim.NewDropTail(64), netsim.Bernoulli{P: 0.1})
			w := &wireCheck{t: t, next: p.fwd, off: map[uint64]int{}, seg: map[uint64]map[seqspace.Seq][2]int{}}
			f := StartFlow(p.sim, FlowConfig{ID: 1, Profile: tc.profile, RTTHint: 30 * time.Millisecond, Fwd: w, Rev: p.rev})
			p.attach(f)
			ids := []uint64{0}
			// Uneven writes, one every 40 ms, mostly while the backlog is
			// still full (a write then takes what the cap leaves): the first
			// fits the small first page, some pass a whole page.
			sizes := []int{700, 3_001, 65_537, 20_011, 1, 1_399, 70_001, 9_000, 130_003, 512}
			const writes = 30
			written := map[uint64]int{}
			buf := make([]byte, 140_000)
			for k := 0; k < writes; k++ {
				k := k
				p.sim.At(netsim.Time(k+1)*40*time.Millisecond, func() {
					if k == 0 && tc.second {
						id, err := f.Sender.OpenStream(packet.StreamExpiring, deadline)
						if err != nil {
							t.Fatal(err)
						}
						ids = append(ids, id)
					}
					for _, id := range ids {
						n := sizes[(k+int(id))%len(sizes)]
						written[id] += f.Sender.WriteStream(id, storeBytes(id, written[id], buf[:n]))
					}
					if k == writes-1 {
						for _, id := range ids {
							if err := f.Sender.CloseStream(id); err != nil {
								t.Fatal(err)
							}
						}
					}
					f.Pump()
				})
			}
			p.sim.Run(60 * time.Second)
			if st := f.Sender.State(); st != StateClosed {
				t.Fatalf("sender state %v, want closed", st)
			}
			abandoned := 0
			for _, id := range ids {
				if w.off[id] != written[id] {
					t.Errorf("stream %d: %d bytes first sent, %d written", id, w.off[id], written[id])
				}
				st, _ := f.Sender.StreamStats(id)
				abandoned += st.AbandonedSegs
			}
			t.Logf("%d data frames, %d retransmissions checked, %d segments abandoned", w.frames, w.retx, abandoned)
			if w.retx < 50 || abandoned == 0 {
				t.Fatalf("weak coverage: %d retransmissions, %d abandoned", w.retx, abandoned)
			}
		})
	}
}
