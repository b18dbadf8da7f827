package tfrc

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/seqspace"
)

// TestStateIsFlat is the paper's E4 claim, checked where it was false:
// what the classic receiver and the QTPlight sender estimator remember
// must depend on the path, not on how long the connection has lived. A
// packet every 2 ms crosses a 30 ms link that loses 1% for ten virtual
// minutes (3,000 losses; untrimmed, each left a range behind for good).
// The classic receiver sees the arrivals; a light receiver — cumulative
// ack, 16 blocks, a hole skipped once 250 packets have passed it, as an
// unreliable stream does — acknowledges them over a clean 30 ms link to
// the estimator. State in the tenth minute must be what it was in the
// first: the same bytes, the same number of ranges held on average (the
// estimator's count follows the holes of the last 250 packets, a process
// whose mean is flat while its one-minute extremes are not, so its bytes
// — which ratchet with the slice's capacity — get a quarter of slack).
func TestStateIsFlat(t *testing.T) {
	const (
		size     = 1400
		rtt      = 60 * time.Millisecond
		interval = 2 * time.Millisecond
		skip     = 250
	)
	sim := netsim.New(7)
	recv := NewReceiver(ReceiverConfig{SegmentSize: size})
	est := NewSenderEstimator(EstimatorConfig{SegmentSize: size})

	type ackVec struct {
		cum    seqspace.Seq
		blocks []seqspace.Range
	}
	var recvLen, estLen, recvN, estN int // ranges held, summed over the samples since the last reading
	rev := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: rtt / 2,
		Dst: netsim.HandlerFunc(func(p *netsim.Packet) {
			v := p.Payload.(ackVec)
			est.OnAckVector(sim.Now(), v.cum, v.blocks, rtt)
			estLen, estN = estLen+est.acked.Len(), estN+1
		}),
	})
	var got seqspace.IntervalSet // the light receiver: all it keeps
	cum := seqspace.Seq(1)
	fwd := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "fwd", Rate: 125e6, Delay: rtt / 2, Loss: netsim.Bernoulli{P: 0.01},
		Dst: netsim.HandlerFunc(func(p *netsim.Packet) {
			seq := p.Payload.(seqspace.Seq)
			recv.OnData(sim.Now(), seq, size, rtt)
			recvLen, recvN = recvLen+recv.received.Len(), recvN+1

			got.AddSeq(seq)
			if cum.Add(skip).Less(seq) {
				cum = cum.Next() // give up on the hole at the frontier
			}
			cum = got.FirstMissingAfter(cum)
			got.RemoveBefore(cum)
			v := ackVec{cum: cum}
			v.blocks = append(v.blocks, got.Ranges()[:min(16, got.Len())]...)
			rev.Send(&netsim.Packet{Size: 64, Payload: v})
		}),
	})
	next := seqspace.Seq(1)
	var send func()
	send = func() {
		est.OnSent(sim.Now(), next, size)
		fwd.Send(&netsim.Packet{Size: size, Payload: next})
		next = next.Next()
		sim.After(interval, send)
	}
	sim.At(0, send)

	type sample struct {
		recvBytes, estBytes int
		recvLen, estLen     float64 // mean over the minute
	}
	minute := func(m int) sample {
		sim.Run(time.Duration(m-1) * time.Minute)
		recvLen, estLen, recvN, estN = 0, 0, 0, 0
		sim.Run(time.Duration(m) * time.Minute)
		return sample{recv.StateBytes(), est.StateBytes(),
			float64(recvLen) / float64(recvN), float64(estLen) / float64(estN)}
	}
	first, tenth := minute(1), minute(10)
	t.Logf("minute 1: %+v; minute 10: %+v; %d packets sent, p = %.4f / %.4f",
		first, tenth, uint32(next)-1, recv.P(), est.P())
	if tenth.recvBytes != first.recvBytes || tenth.recvLen > first.recvLen+1 {
		t.Errorf("classic receiver state grew with age: %+v in minute 1, %+v in minute 10", first, tenth)
	}
	if tenth.estBytes > first.estBytes+first.estBytes/4 || tenth.estLen > first.estLen+1 {
		t.Errorf("sender estimator state grew with age: %+v in minute 1, %+v in minute 10", first, tenth)
	}
	if p := recv.P(); p < 0.005 || p > 0.02 {
		t.Errorf("receiver p = %v on a 1%% path: the run did not exercise loss", p)
	}
}
