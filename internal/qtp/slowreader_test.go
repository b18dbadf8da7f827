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

// slowRun is what one runSlowReader run saw.
type slowRun struct {
	written, delivered, maxHeld, corruptAt int
	f                                      *Flow
}

// runSlowReader is one slow-reader run over the sans-IO core: a 10
// Mbit/s path that loses only what overflows its queue, a writer that
// keeps stream 0's backlog full for writeFor virtual seconds, and a
// consumer that reads 1,000 B per 8 ms — a tenth of the link rate: it
// takes one chunk, then waits 8 ms per 1,000 B the chunk held (8 ms
// after an empty read), however many segments a chunk carries.
// held reports the receiver's stream-0 bytes that count against the
// delivery bound; maxHeld is the most it read after any arrival or read.
func runSlowReader(prof core.Profile, writeFor time.Duration, held func(rs *recvStream) int) slowRun {
	p := newTestPath(31, 1.25e6, 10*time.Millisecond, netsim.NewDropTail(64), nil)
	r := slowRun{corruptAt: -1}
	r.f = p.startFlow(FlowConfig{Profile: prof, RTTHint: 20 * time.Millisecond})
	f := r.f
	observe := func() {
		if rs := f.Receiver.recvByID[0]; rs != nil {
			r.maxHeld = max(r.maxHeld, held(rs))
		}
	}
	// The flow's own receiver entry reads after every arrival; this
	// consumer reads on its own clock.
	p.toRecv.Target = netsim.HandlerFunc(func(pk *netsim.Packet) {
		_ = f.Receiver.HandleFrame(p.sim.Now(), pk.Payload.([]byte))
		observe()
		f.pumpReceiver()
	})

	block := make([]byte, 16<<10)
	var write func()
	write = func() {
		if p.sim.Now() >= writeFor {
			f.CloseSend()
			return
		}
		for i := range block {
			block[i] = slowPattern(r.written + i)
		}
		r.written += f.Sender.Write(block)
		f.Pump()
		p.sim.At(p.sim.Now()+time.Millisecond, write)
	}
	p.sim.At(time.Millisecond, write)

	var read func()
	read = func() {
		observe()
		wait := 8 * time.Millisecond
		if chunk, ok := f.Receiver.ReadStream(0); ok {
			for i, b := range chunk {
				if b != slowPattern(r.delivered+i) && r.corruptAt < 0 {
					r.corruptAt = r.delivered + i
				}
			}
			r.delivered += len(chunk)
			wait = time.Duration(len(chunk)) * 8 * time.Millisecond / 1000
			bufpool.PutChunk(chunk)
		}
		if !f.Receiver.Finished() {
			p.sim.At(p.sim.Now()+wait, read)
		}
	}
	p.sim.At(8*time.Millisecond, read)
	p.sim.Run(10 * time.Minute)
	return r
}

// TestSlowReaderSansIO is the sans-IO twin of qtpnet's
// TestSlowReaderLosesNothing. A reliable stream must deliver every
// written byte, in order, while holding no more than the delivery bound
// (and one flight) unread: what the consumer does not take the receiver
// must refuse, not buffer and not drop.
func TestSlowReaderSansIO(t *testing.T) {
	r := runSlowReader(core.Profile{
		Reliability: packet.ReliabilityFull,
		Feedback:    packet.FeedbackReceiverLoss,
		MSS:         1000,
	}, 30*time.Second, func(rs *recvStream) int { return rs.Unread() })

	st, refused := r.f.Sender.Stats(), r.f.Receiver.Stats().RefusedFrames
	t.Logf("wrote %d, delivered %d, most unread %d; receiver refused %d frames, sender retransmitted %d of %d",
		r.written, r.delivered, r.maxHeld, refused, st.RetransFrames, st.DataFramesSent)
	if r.corruptAt >= 0 {
		t.Errorf("delivered stream diverges from what was written at offset %d", r.corruptAt)
	}
	if r.delivered != r.written {
		t.Errorf("delivered %d bytes of %d written", r.delivered, r.written)
	}
	// No arrival is taken past the bound; what may carry unread beyond it
	// is only what sat out of order behind a refused frontier segment when
	// its retransmission landed — a flight, here under 90 kB of path.
	if r.maxHeld > deliveryBound+deliveryBound/8 {
		t.Errorf("receiver held %d bytes unread, bound is %d plus a flight", r.maxHeld, deliveryBound)
	}
	if refused == 0 {
		t.Error("a consumer at a tenth of the link rate was never refused an arrival")
	}
	if !r.f.Receiver.Finished() {
		t.Error("receiver did not finish the stream")
	}
}

// TestSlowReaderExpiringSansIO is the same consumer on an expiring
// stream. Its skip moves everything buffered behind a hole onto the
// ready queue at once, so the bound must count the out-of-order buffer
// as well: ready plus buffered bytes stay within the bound plus the one
// frontier frame admitted past it.
func TestSlowReaderExpiringSansIO(t *testing.T) {
	const mss = 1000
	r := runSlowReader(core.Profile{
		Reliability: packet.ReliabilityPartial,
		Deadline:    100 * time.Millisecond,
		Feedback:    packet.FeedbackReceiverLoss,
		MSS:         mss,
	}, 10*time.Second, func(rs *recvStream) int { return rs.Unread() + rs.BufferedBytes() })

	st, rst := r.f.Sender.Stats(), r.f.Receiver.Stats()
	t.Logf("wrote %d, delivered %d, most held %d; receiver refused %d frames, sender retransmitted %d of %d",
		r.written, r.delivered, r.maxHeld, rst.RefusedFrames, st.RetransFrames, st.DataFramesSent)
	if r.maxHeld > deliveryBound+mss {
		t.Errorf("receiver held %d bytes ready or buffered, bound is %d plus one frame", r.maxHeld, deliveryBound)
	}
	if r.delivered == 0 || rst.RefusedFrames == 0 {
		t.Errorf("delivered %d bytes with %d refusals: the consumer never fell behind", r.delivered, rst.RefusedFrames)
	}
	if !r.f.Receiver.Finished() {
		t.Error("receiver did not finish the stream")
	}
}
