// Videostream: the paper's motivating scenario — a powerful server
// streams GOP-structured video to a resource-limited mobile receiver
// over a lossy wireless-like path, using the QTPlight composition
// (sender-side loss estimation) with per-stream delivery modes:
// I-frames ride a reliable-ordered stream (a lost key frame corrupts
// the whole GOP, so it is always worth a retransmission), while delta
// frames ride an expiring stream whose 200 ms deadline lets the
// transport itself abandon stale frames — no app-level dropping, the
// delivery mode IS the drop policy.
//
// The run uses the deterministic simulator so the wireless path is
// reproducible; it prints the delivered-rate timeline, the per-stream
// delivery ledger and, crucially, the receiver's cost ledger: zero
// TFRC operations, zero loss-history state.
//
// Run: go run ./examples/videostream
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qtp"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	sim := netsim.New(7)

	// A 2 Mb/s wireless downlink with bursty (Gilbert-Elliott) loss.
	toRecv, toSend := &netsim.Indirect{}, &netsim.Indirect{}
	down := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "wireless-down", Rate: 250_000, Delay: 30 * time.Millisecond,
		Queue: netsim.NewDropTail(50),
		Loss:  netsim.NewGilbertElliott(0.004, 0.25, 0.03, 0.25),
		Dst:   toRecv,
	})
	up := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "wireless-up", Rate: 125_000, Delay: 30 * time.Millisecond,
		Queue: netsim.NewDropTail(50), Dst: toSend,
	})

	// QTPlight with stream multiplexing: sender-side loss estimation,
	// stream 0 fully reliable for the key frames, and an expiring
	// sibling stream (opened below) for the delta frames.
	profile := core.Profile{
		Reliability: packet.ReliabilityFull,
		Feedback:    packet.FeedbackSenderLoss,
		MSS:         core.DefaultMSS,
		MaxStreams:  4,
	}
	const deltaDeadline = 200 * time.Millisecond

	flow := qtp.StartFlow(sim, qtp.FlowConfig{
		ID:      1,
		Profile: profile,
		RTTHint: 60 * time.Millisecond,
		Fwd:     down,
		Rev:     up,
	})
	toRecv.Target = flow.ReceiverEntry()
	toSend.Target = flow.SenderEntry()

	// 25 fps video, ~4 kB P-frames, I-frame every 12 frames: ~1.1 Mb/s.
	video := workload.NewVideo(25, 4000, 12, 4.0,
		30*time.Second, rand.New(rand.NewSource(99)))

	// Route each video frame onto the stream matching its class.
	var deltaStream uint64
	var keyBytes, deltaBytes int
	var schedule func()
	schedule = func() {
		at, size, key, ok := video.NextFrame()
		if !ok {
			flow.Sender.CloseStream(0)
			flow.Sender.CloseStream(deltaStream)
			flow.Pump()
			return
		}
		sim.At(at, func() {
			if key {
				keyBytes += flow.Sender.WriteStream(0, make([]byte, size))
			} else {
				deltaBytes += flow.Sender.WriteStream(deltaStream, make([]byte, size))
			}
			flow.Pump()
			schedule()
		})
	}
	sim.At(0, func() {
		id, err := flow.Sender.OpenStream(packet.StreamExpiring, deltaDeadline)
		if err != nil {
			panic(err)
		}
		deltaStream = id
		schedule()
	})

	rs := stats.NewRateSeries(time.Second)
	rs.Add(0, 0)
	flow.DeliveredAt = func(now time.Duration, n int) { rs.Add(now, n) }

	sim.Run(35 * time.Second)

	fmt.Println("delivered rate (kB/s) per second:")
	for i, r := range rs.Rates() {
		fmt.Printf("  t=%2ds %7.1f %s\n", i+1, r/1000, bar(r/1000, 2))
	}
	snd := flow.Sender.Stats()
	fmt.Printf("\nsent %d frames (%d bytes), %d retransmitted\n",
		snd.DataFramesSent, snd.DataBytesSent, snd.RetransFrames)

	fmt.Printf("\nper-stream ledger (delivery mode as drop policy):\n")
	keyStats, _ := flow.Receiver.StreamStats(0)
	deltaStats, _ := flow.Receiver.StreamStats(deltaStream)
	keySnd, _ := flow.Sender.StreamStats(0)
	deltaSnd, _ := flow.Sender.StreamStats(deltaStream)
	fmt.Printf("  key frames   (%v): %d/%d bytes delivered (%.1f%%), %d retx, %d abandoned\n",
		keyStats.Mode, flow.StreamDelivered[0], keyBytes,
		100*float64(flow.StreamDelivered[0])/float64(keyBytes),
		keySnd.RetransFrames, keySnd.AbandonedSegs)
	fmt.Printf("  delta frames (%v): %d/%d bytes delivered (%.1f%%), %d retx, %d segs expired at sender, %d skipped at receiver\n",
		deltaStats.Mode, flow.StreamDelivered[deltaStream], deltaBytes,
		100*float64(flow.StreamDelivered[deltaStream])/float64(deltaBytes),
		deltaSnd.RetransFrames, deltaSnd.AbandonedSegs, deltaStats.SkippedSegs)

	fmt.Printf("\nmobile receiver ledger (the paper's point):\n")
	fmt.Printf("  TFRC ops:        %d\n", flow.Receiver.TFRCReceiverOps())
	fmt.Printf("  TFRC state:      %d bytes\n", flow.Receiver.TFRCReceiverStateBytes())
	fmt.Printf("  SACK frames:     %d (%d bytes total)\n",
		flow.Receiver.Stats().SACKFrames, flow.Receiver.Stats().SACKBytes)
	fmt.Printf("server-side estimator (absorbed the work):\n")
	fmt.Printf("  estimator ops:   %d\n", flow.Sender.EstimatorOps())
	fmt.Printf("  estimator state: %d bytes\n", flow.Sender.EstimatorStateBytes())
	fmt.Printf("  loss estimate p: %.4f\n", flow.Sender.LossRate())
}

func bar(v float64, scale float64) string {
	n := int(v / scale)
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
