package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bbr"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qcrypto"
	"repro/internal/sack"
	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

// Isolated probes: each layer driven alone through its exported entry
// points on a fixed input. Every value is the median over timed batches
// of the mean cost of one operation in the batch.
const (
	probeBatches = 21
	probeBatchNS = 1e6 // batches are sized to last about this long
	probeMSS     = core.DefaultMSS
)

// sample sizes a batch, then times probeBatches of them. prepare, if
// not nil, builds a batch's input outside the timed part.
func sample(prepare, op func(n int)) float64 {
	run := func(n int) int64 {
		if prepare != nil {
			prepare(n)
		}
		t := nowNS()
		op(n)
		return nowNS() - t
	}
	n := 16
	for run(n) < probeBatchNS && n < 1<<20 {
		n *= 2
	}
	per := make([]float64, probeBatches)
	for i := range per {
		per[i] = float64(run(n)) / float64(n)
	}
	return median(per)
}

// probeFailure is set by a probe whose layer refused valid input; the
// run then reports itself incorrect.
var probeFailure error

func probeCheck(err error, what string) {
	if err != nil && probeFailure == nil {
		probeFailure = fmt.Errorf("probe %s: %w", what, err)
	}
}

// runProbes returns every isolated-probe row of the per-layer table.
func runProbes() map[string]float64 {
	out := map[string]float64{
		"qcrypto.handshake_us":         probeHandshake() / 1e3,
		"packet.header_ns":             probeHeader(),
		"packet.sack_ns":               probeSACK(),
		"bufpool.getput_ns":            sample(nil, func(n int) { loop(n, func(int) { bufpool.Put(bufpool.Get()) }) }),
		"bufpool.chunk_getput_ns":      sample(nil, func(n int) { loop(n, func(int) { bufpool.PutChunk(bufpool.GetChunk()) }) }),
		"seqspace.intervalset_add_ns":  probeIntervalAdd(),
		"seqspace.intervalset_gaps_ns": probeIntervalGaps(),
		"sack.sendbuf_cycle_ns":        probeSendBuffer(false),
		"sack.sendbuf_lossy_cycle_ns":  probeSendBuffer(true),
		"sack.reassembler_inorder_ns":  probeReassembler(false),
		"sack.reassembler_holes_ns":    probeReassembler(true),
		"tfrc.receiver_packet_ns":      probeTFRCReceiver(),
		"tfrc.sender_feedback_ns":      probeTFRCSender(),
		"tfrc.estimator_ack_ns":        probeEstimator(),
		"bbr.sent_acked_ns":            probeBBR(),
		"netsim.event_ns":              probeNetsim(),
		"qtp.pair_ns_per_frame":        probePair(1),
		"qtp.pair_ns_per_frame_multi":  probePair(2),
	}
	for _, size := range []int{probeMSS, msgSize} {
		seal, open := probeSealOpen(size)
		out[fmt.Sprintf("qcrypto.seal_ns_%d", size)] = seal
		out[fmt.Sprintf("qcrypto.open_ns_%d", size)] = open
	}
	return out
}

func loop(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

// probeSealOpen times Session.SealAppend and Session.Open on frames of
// size bytes. Open decrypts in place and rejects replays, so every
// batch opens datagrams sealed for it outside the timed part.
func probeSealOpen(size int) (seal, open float64) {
	var k qcrypto.Keys
	for i := range k.Key {
		k.Key[i] = byte(i)
	}
	tx, rx := qcrypto.NewSession(), qcrypto.NewSession()
	tx.SetSendKeys(qcrypto.Epoch1RTT, k)
	rx.SetRecvKeys(qcrypto.Epoch1RTT, k)
	frame := make([]byte, size)
	dst := make([]byte, 0, size+64)
	seal = sample(nil, func(n int) {
		loop(n, func(int) {
			var err error
			dst, err = tx.SealAppend(dst[:0], 1, frame)
			probeCheck(err, "seal")
		})
	})
	var boxes [][]byte
	open = sample(func(n int) {
		for len(boxes) < n {
			boxes = append(boxes, make([]byte, 0, size+64))
		}
		loop(n, func(i int) {
			var err error
			boxes[i], err = tx.SealAppend(boxes[i][:0], 1, frame)
			probeCheck(err, "seal for open")
		})
	}, func(n int) {
		loop(n, func(i int) {
			_, _, err := rx.Open(boxes[i])
			probeCheck(err, "open")
		})
	})
	return seal, open
}

// probeHandshake is the key agreement both ends of one handshake pay:
// two key pairs, two X25519 exchanges, the transcript hash and both
// sides' session keys.
func probeHandshake() float64 {
	connect, accept := make([]byte, 96), make([]byte, 160)
	return sample(nil, func(n int) {
		loop(n, func(int) {
			a, err := qcrypto.GenerateKey()
			probeCheck(err, "generate key")
			b, err := qcrypto.GenerateKey()
			probeCheck(err, "generate key")
			if a == nil || b == nil {
				return
			}
			s1, err := qcrypto.Shared(a, b.PublicKey().Bytes())
			probeCheck(err, "shared")
			s2, err := qcrypto.Shared(b, a.PublicKey().Bytes())
			probeCheck(err, "shared")
			qcrypto.SessionKeys(s1, qcrypto.TranscriptHash(connect, accept))
			qcrypto.SessionKeys(s2, qcrypto.TranscriptHash(connect, accept))
		})
	})
}

func probeHeader() float64 {
	h := packet.Header{Type: packet.TypeData, ConnID: 1, Seq: 100, Timestamp: 5}
	buf := make([]byte, 0, 64)
	var out packet.Header
	return sample(nil, func(n int) {
		loop(n, func(int) {
			buf = h.AppendTo(buf[:0])
			_, err := out.Parse(buf)
			probeCheck(err, "header parse")
		})
	})
}

func probeSACK() float64 {
	s := packet.SACK{CumAck: 9, Blocks: []packet.SACKBlock{{Lo: 10, Hi: 12}, {Lo: 14, Hi: 16}, {Lo: 20, Hi: 30}}}
	buf := make([]byte, 0, 128)
	out := packet.SACK{Blocks: make([]packet.SACKBlock, 0, packet.MaxSACKBlocks)}
	return sample(nil, func(n int) {
		loop(n, func(int) {
			var err error
			buf, err = s.AppendTo(buf[:0])
			probeCheck(err, "sack append")
			probeCheck(out.Parse(buf), "sack parse")
		})
	})
}

// probeIntervalAdd is the receiver's bookkeeping per packet at 1% loss:
// add the sequence number, trim what the frontier has passed.
func probeIntervalAdd() float64 {
	var set seqspace.IntervalSet
	rng := rand.New(rand.NewSource(1))
	seq := seqspace.Seq(0)
	return sample(nil, func(n int) {
		loop(n, func(int) {
			if rng.Float64() < 0.01 {
				seq = seq.Next()
			}
			set.AddSeq(seq)
			seq = seq.Next()
			if set.Count() > 1<<12 {
				set.RemoveBefore(seq.Add(-100))
			}
		})
	})
}

// probeIntervalGaps lists the holes of a 2000-packet span with 20
// holes in it, the view a SACK or a retransmission scan is built from.
func probeIntervalGaps() float64 {
	var set seqspace.IntervalSet
	for i := 0; i < 2000; i++ {
		if i%100 != 50 {
			set.AddSeq(seqspace.Seq(i))
		}
	}
	var gaps []seqspace.Range
	return sample(nil, func(n int) {
		loop(n, func(int) { gaps = set.Gaps(gaps[:0], 0, 2000) })
	})
}

// probeSendBuffer is one scoreboard cycle with 512 segments in flight:
// add a segment, fold in the acknowledgment of the one sent 512
// earlier. lossy drops 1% of first transmissions, so the vector carries
// blocks and the cycle also asks for retransmissions and the next
// timeout, as the connection does on every acknowledgment.
func probeSendBuffer(lossy bool) float64 {
	const inFlight = 512
	const rto = 200 * time.Millisecond
	sb := sack.NewSendBuffer(0)
	payload := make([]byte, probeMSS)
	var got seqspace.IntervalSet
	var blocks []seqspace.Range
	next, cum := seqspace.Seq(1), seqspace.Seq(1)
	now := time.Duration(0)
	step := func(int) {
		sb.Add(now, next, payload)
		next = next.Next()
		now += 100 * time.Microsecond
		if sb.Len() <= inFlight {
			return
		}
		arrived := next.Add(-inFlight - 1)
		if !lossy || uint32(arrived)%100 != 50 {
			got.AddSeq(arrived)
		}
		cum = got.FirstMissingAfter(cum)
		blocks = blocks[:0]
		for _, r := range got.Ranges() {
			if cum.Less(r.Lo) && len(blocks) < 4 {
				blocks = append(blocks, r)
			}
		}
		sb.OnSACK(now, cum, blocks)
		if lossy {
			for {
				seq, _, _, ok := sb.NextRetransmitSeg(now, rto)
				if !ok {
					break
				}
				got.AddSeq(seq) // the retransmission arrives
			}
			sb.NextTimeout(rto)
		}
		got.RemoveBefore(cum)
	}
	loop(2*inFlight, step)
	return sample(nil, func(n int) { loop(n, step) })
}

// probeReassembler is one segment into the receiver's reassembler and
// whatever it releases out of it. holes delivers 1% of segments 64
// positions late, so the rest wait behind them.
func probeReassembler(holes bool) float64 {
	const lateBy = 64
	r := sack.NewReassembler(1, 0)
	payload := make([]byte, probeMSS)
	seq := seqspace.Seq(1)
	now := time.Duration(0)
	deliver := func(s seqspace.Seq) {
		r.OnData(now, s, payload, false)
		for {
			p, ok := r.Pop()
			if !ok {
				return
			}
			bufpool.PutChunk(p)
		}
	}
	return sample(nil, func(n int) {
		loop(n, func(int) {
			now += 100 * time.Microsecond
			if !holes || uint32(seq)%100 != 50 {
				deliver(seq)
			}
			if late := seq.Add(-lateBy); holes && uint32(late)%100 == 50 && late.GreaterEq(1) {
				deliver(late)
			}
			seq = seq.Next()
		})
	})
}

// probeTFRCReceiver is the paper's E4 unit: the classic receiver's
// per-packet path (loss detection, loss-interval history, rate window)
// at 1% loss.
func probeTFRCReceiver() float64 {
	r := tfrc.NewReceiver(tfrc.ReceiverConfig{SegmentSize: probeMSS})
	rng := rand.New(rand.NewSource(1))
	seq := seqspace.Seq(0)
	now := time.Duration(0)
	return sample(nil, func(n int) {
		loop(n, func(int) {
			if rng.Float64() < 0.01 {
				seq = seq.Next()
			}
			now += time.Millisecond
			r.OnData(now, seq, probeMSS, 60*time.Millisecond)
			seq = seq.Next()
		})
	})
}

func probeTFRCSender() float64 {
	s := tfrc.NewSender(tfrc.SenderConfig{SegmentSize: probeMSS})
	s.Start(0)
	s.SeedRTT(0, 60*time.Millisecond)
	now := time.Duration(0)
	return sample(nil, func(n int) {
		loop(n, func(int) {
			now += 60 * time.Millisecond
			s.OnFeedback(now, tfrc.FeedbackInfo{XRecv: 1e6, P: 0.01, RTTSample: 60 * time.Millisecond})
			s.InterPacketInterval(probeMSS)
		})
	})
}

// probeEstimator is what the QTPlight sender pays per acknowledgment
// to estimate loss itself, at 1% loss.
func probeEstimator() float64 {
	e := tfrc.NewSenderEstimator(tfrc.EstimatorConfig{SegmentSize: probeMSS})
	rng := rand.New(rand.NewSource(1))
	var acked seqspace.IntervalSet
	var blocks []seqspace.Range
	seq, cum := seqspace.Seq(0), seqspace.Seq(0)
	now := time.Duration(0)
	return sample(nil, func(n int) {
		loop(n, func(int) {
			now += time.Millisecond
			e.OnSent(now, seq, probeMSS)
			s := seq
			seq = seq.Next()
			if rng.Float64() < 0.01 {
				return
			}
			acked.AddSeq(s)
			cum = acked.FirstMissingAfter(cum)
			blocks = blocks[:0]
			for _, r := range acked.Ranges() {
				if cum.Less(r.Lo) && len(blocks) < 4 {
					blocks = append(blocks, r)
				}
			}
			e.OnAckVector(now, cum, blocks, 60*time.Millisecond)
			acked.RemoveBefore(cum)
		})
	})
}

func probeBBR() float64 {
	c := bbr.New(bbr.Config{MSS: probeMSS})
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	seq := seqspace.Seq(1)
	now := time.Duration(0)
	return sample(nil, func(n int) {
		loop(n, func(int) {
			c.OnSent(now, seq, probeMSS)
			c.OnAcked(now+40*time.Millisecond, seq, probeMSS, 40*time.Millisecond)
			seq = seq.Next()
			now += 10 * time.Microsecond
		})
	})
}

// probeNetsim is one packet through one simulated link: enqueue,
// transmit, propagate, deliver.
func probeNetsim() float64 {
	sim := netsim.New(1)
	sink := netsim.HandlerFunc(func(*netsim.Packet) {})
	l := netsim.NewLink(sim, netsim.LinkConfig{Name: "l", Rate: 1e9, Delay: time.Microsecond, Dst: sink})
	return sample(nil, func(n int) {
		loop(n, func(i int) {
			l.Send(&netsim.Packet{Size: 1000})
			if i%64 == 0 {
				sim.RunUntilIdle()
			}
		})
		sim.RunUntilIdle()
	})
}

// probePair is the whole sans-IO protocol per data frame on a lossless
// path: sender poll, receiver handle and read, acknowledgment back,
// sender handle. It runs the sim harness's own pump over a clean
// 1 Gbit/s, 2 ms RTT link, so it includes that pump and two netsim
// link crossings. The writer is open loop at 21.8 MB/s, under the
// 25 MB/s gTFRC target: a closed loop would let TFRC double its rate
// until the link dropped, and the path would no longer be lossless.
func probePair(streams int) float64 {
	r, err := newSimRun(1, simConfig{
		profile: core.QTPAF(25e6),
		fwdRate: 125e6, revRate: 125e6,
		delay: time.Millisecond, queue: 1000, streams: streams,
		every: 3 * time.Millisecond,
	})
	if err != nil {
		probeCheck(err, "pair")
		return 0
	}
	const batch = 100 * time.Millisecond // virtual
	r.sim.Run(2 * time.Second)
	per := make([]float64, probeBatches)
	for i := range per {
		frames := r.rcv.Stats().FramesReceived
		t := nowNS()
		r.sim.Run(r.sim.Now() + batch)
		per[i] = ratio(float64(nowNS()-t), float64(r.rcv.Stats().FramesReceived-frames))
	}
	if _, _, corrupt := accounting(int64(r.nextOp), r.vers); corrupt {
		probeCheck(fmt.Errorf("%d streams: delivered blocks differ from what was written", streams), "pair")
	}
	return median(per)
}
