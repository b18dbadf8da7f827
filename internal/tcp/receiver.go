package tcp

import (
	"repro/internal/netsim"
	"repro/internal/seqspace"
)

// receiver acknowledges every data segment immediately (no delayed
// ACKs, matching ns-2's default TCP sink) and reports up to three SACK
// blocks for out-of-order data.
type receiver struct {
	f *Flow

	rcvNxt    int64             // next in-order byte expected: received.Cum as an offset
	received  seqspace.Received // bytes arrived, by sequence number
	delivered int64             // in-order bytes handed to the "application"
	finSeen   bool
}

func newReceiver(f *Flow) *receiver { return &receiver{f: f} }

// Recv implements netsim.Handler: data segments arrive here.
func (r *receiver) Recv(p *netsim.Packet) {
	seg, ok := p.Payload.(*Segment)
	if !ok || seg.IsAck {
		return
	}
	if seg.Len > 0 {
		r.received.AddRange(seqspace.Range{Lo: sq(seg.Seq), Hi: sq(seg.Seq + int64(seg.Len))})
		next := offset(r.received.Cum(), r.rcvNxt)
		r.delivered += next - r.rcvNxt
		r.rcvNxt = next
	}
	if seg.Fin {
		r.finSeen = true
	}

	ack := &Segment{
		IsAck:  true,
		Ack:    r.rcvNxt,
		TS:     r.f.sim.Now(),
		TSEcho: seg.TS,
	}
	blocks := r.received.Above()
	ack.SACKs = append([]seqspace.Range(nil), blocks[:min(len(blocks), maxSACKBlocks)]...)
	r.f.cfg.Rev.Recv(&netsim.Packet{
		Flow:    r.f.cfg.ID,
		Size:    HeaderBytes + 10*len(ack.SACKs) + 12, // options: SACK + TS
		Payload: ack,
	})
}
