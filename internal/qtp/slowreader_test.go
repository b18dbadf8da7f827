package qtp

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// slowPattern is the byte at offset off of the test stream.
func slowPattern(off int) byte { return byte(off ^ off>>8 ^ off>>16) }

// TestSlowReaderSansIO is the sans-IO twin of qtpnet's
// TestSlowReaderLosesNothing: a 10 Mbit/s path that loses only what
// overflows its queue, a writer that keeps the backlog full for 30
// virtual seconds, and a consumer that takes one chunk every 8 ms — a
// tenth of the link rate. A reliable
// stream must deliver every written byte, in order, while holding no
// more than the delivery bound (and one flight) unread: what the
// consumer does not take the receiver must refuse, not buffer and not
// drop.
func TestSlowReaderSansIO(t *testing.T) {
	p := newTestPath(31, 1.25e6, 10*time.Millisecond, netsim.NewDropTail(64), nil)
	f := p.startFlow(FlowConfig{
		Profile: core.Profile{
			Reliability: packet.ReliabilityFull,
			Feedback:    packet.FeedbackReceiverLoss,
			MSS:         1000,
		},
		RTTHint: 20 * time.Millisecond,
	})
	// The flow's own receiver entry reads after every arrival; this
	// consumer reads on its own clock.
	p.toRecv.Target = netsim.HandlerFunc(func(pk *netsim.Packet) {
		_ = f.Receiver.HandleFrame(p.sim.Now(), pk.Payload.([]byte))
		f.pumpReceiver()
	})

	const writeFor = 30 * time.Second
	written, block := 0, make([]byte, 16<<10)
	var write func()
	write = func() {
		if p.sim.Now() >= writeFor {
			f.CloseSend()
			return
		}
		for i := range block {
			block[i] = slowPattern(written + i)
		}
		written += f.Sender.Write(block)
		f.Pump()
		p.sim.At(p.sim.Now()+time.Millisecond, write)
	}
	p.sim.At(time.Millisecond, write)

	unread := func() int {
		st, _ := f.Receiver.StreamStats(0)
		return st.UnreadBytes
	}
	delivered, maxUnread, corruptAt := 0, 0, -1
	var read func()
	read = func() {
		if u := unread(); u > maxUnread {
			maxUnread = u
		}
		if chunk, ok := f.Receiver.ReadStream(0); ok {
			for i, b := range chunk {
				if b != slowPattern(delivered+i) && corruptAt < 0 {
					corruptAt = delivered + i
				}
			}
			delivered += len(chunk)
			bufpool.PutChunk(chunk)
		}
		if !f.Receiver.Finished() {
			p.sim.At(p.sim.Now()+8*time.Millisecond, read)
		}
	}
	p.sim.At(8*time.Millisecond, read)
	p.sim.Run(10 * time.Minute)

	st, refused := f.Sender.Stats(), f.Receiver.Stats().RefusedFrames
	t.Logf("wrote %d, delivered %d, most unread %d; receiver refused %d frames, sender retransmitted %d of %d",
		written, delivered, maxUnread, refused, st.RetransFrames, st.DataFramesSent)
	if corruptAt >= 0 {
		t.Errorf("delivered stream diverges from what was written at offset %d", corruptAt)
	}
	if delivered != written {
		t.Errorf("delivered %d bytes of %d written", delivered, written)
	}
	// No arrival is taken past the bound; what may carry unread beyond it
	// is only what sat out of order behind a refused frontier segment when
	// its retransmission landed — a flight, here under 90 kB of path.
	if maxUnread > deliveryBound+deliveryBound/8 {
		t.Errorf("receiver held %d bytes unread, bound is %d plus a flight", maxUnread, deliveryBound)
	}
	if refused == 0 {
		t.Error("a consumer at a tenth of the link rate was never refused an arrival")
	}
	if !f.Receiver.Finished() {
		t.Error("receiver did not finish the stream")
	}
}
