// Command qtpsim runs a single simulated QTP flow over a configurable
// path and prints a one-second goodput series plus summary counters —
// a workbench for exploring protocol behaviour outside the fixed
// experiment suite.
//
// Usage:
//
//	qtpsim [-profile qtpaf|qtplight|qtplight-rel|classic] [-rate 125000]
//	       [-g 50000] [-loss 0.01] [-burst] [-rtt 40ms] [-dur 30s] [-seed 1]
//	       [-cc tfrc|bbr] [-queue 100]
//	       [-streams N [-mix reliable,unordered,expiring] [-deadline 200ms]]
//	qtpsim -cc-matrix [-rate ...] [-rtt ...] [-loss ...] [-dur ...]
//	       [-assert-ratio 2.0]
//
// With -streams N > 1 the flow negotiates stream multiplexing and runs
// N concurrent streams over the one connection, delivery modes cycling
// through -mix, a paced feed on each; the summary becomes a per-stream
// ledger showing what each mode delivered, skipped and abandoned under
// the configured loss.
//
// -cc-matrix runs the congestion-control head-to-head instead: TFRC,
// gTFRC (target -g) and BBR, one bulk flow each over the same path and
// seed, and prints delivered bytes plus each controller's ratio to
// TFRC. With -assert-ratio r > 0 the command exits non-zero unless
// BBR delivers at least r times TFRC's bytes — the CI smoke hook for
// the large-BDP acceptance bar.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qtp"
	"repro/internal/stats"
)

// options is everything qtpsim's command line sets.
type options struct {
	profName    string
	rate        float64
	g           float64
	loss        float64
	burst       bool
	rtt         time.Duration
	dur         time.Duration
	seed        int64
	streams     int
	mix         string
	deadline    time.Duration
	cc          string
	queue       int
	ccMatrix    bool
	assertRatio float64
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.profName, "profile", "classic", "qtpaf | qtplight | qtplight-rel | classic")
	fs.Float64Var(&o.rate, "rate", 125_000, "bottleneck rate, bytes/s")
	fs.Float64Var(&o.g, "g", 50_000, "QoS target for qtpaf, bytes/s")
	fs.Float64Var(&o.loss, "loss", 0.01, "random loss probability")
	fs.BoolVar(&o.burst, "burst", false, "use Gilbert-Elliott burst loss instead of i.i.d.")
	fs.DurationVar(&o.rtt, "rtt", 40*time.Millisecond, "base round-trip time")
	fs.DurationVar(&o.dur, "dur", 30*time.Second, "simulated duration")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.streams, "streams", 1, "streams on the connection (>1 = multi-stream mixed-mode run)")
	fs.StringVar(&o.mix, "mix", "reliable,expiring", "delivery modes cycled across streams: reliable | unordered | expiring")
	fs.DurationVar(&o.deadline, "deadline", 200*time.Millisecond, "retransmission deadline for expiring streams")
	fs.StringVar(&o.cc, "cc", "", "congestion control: tfrc (default) | bbr")
	fs.IntVar(&o.queue, "queue", 100, "bottleneck queue depth, packets")
	fs.BoolVar(&o.ccMatrix, "cc-matrix", false, "run the TFRC / gTFRC / BBR head-to-head and exit")
	fs.Float64Var(&o.assertRatio, "assert-ratio", 0, "with -cc-matrix: fail unless BBR ≥ ratio × TFRC bytes")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if o.ccMatrix {
		runCCMatrix(o)
		return
	}

	prof, err := core.ParseProfile(o.profName, o.g)
	if err != nil {
		log.Fatal(err)
	}
	if o.cc != "" {
		mode, err := packet.ParseCongestion(o.cc)
		if err != nil {
			log.Fatal(err)
		}
		prof.Congestion = mode
		if err := prof.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	multiRun := o.streams > 1
	var modes []packet.StreamMode
	if multiRun {
		if modes, err = packet.ParseModes(o.mix); err != nil {
			log.Fatal(err)
		}
		if prof.Reliability == packet.ReliabilityNone {
			// Streams need per-stream scoreboards; lift the profile to
			// full reliability (stream modes then pick the service).
			prof.Reliability = packet.ReliabilityFull
			prof.Deadline = 0
		}
		prof.MaxStreams = o.streams
	}

	sim, f := startFlow(o, prof, !multiRun)

	var streamIDs []uint64
	if multiRun {
		// One paced feed per stream: a chunk every 20 ms, the link rate
		// split evenly, so expiring streams see deadline pressure the
		// moment loss or queueing delays recovery.
		chunk := int(o.rate / float64(o.streams) / 50)
		if chunk < 200 {
			chunk = 200
		}
		sim.At(0, func() {
			streamIDs = append(streamIDs, 0)
			for i := 1; i < o.streams; i++ {
				mode := modes[(i-1)%len(modes)]
				var dl time.Duration
				if mode == packet.StreamExpiring {
					dl = o.deadline
				}
				id, err := f.Sender.OpenStream(mode, dl)
				if err != nil {
					log.Fatalf("open stream: %v", err)
				}
				streamIDs = append(streamIDs, id)
			}
		})
		steps := int(o.dur / (20 * time.Millisecond))
		for step := 0; step < steps; step++ {
			step := step
			sim.At(time.Duration(step)*20*time.Millisecond+time.Millisecond, func() {
				for _, id := range streamIDs {
					f.Sender.WriteStream(id, make([]byte, chunk))
				}
				if step == steps-1 {
					for _, id := range streamIDs {
						f.Sender.CloseStream(id)
					}
				}
				f.Pump()
			})
		}
	}

	rs := stats.NewRateSeries(time.Second)
	rs.Add(0, 0)
	f.DeliveredAt = func(now time.Duration, n int) { rs.Add(now, n) }
	sim.Run(o.dur)

	fmt.Printf("# profile=%v rate=%.0f loss=%.3f burst=%v rtt=%v seed=%d\n",
		prof, o.rate, o.loss, o.burst, o.rtt, o.seed)
	fmt.Println("t(s)  goodput(kB/s)")
	for i, r := range rs.Rates() {
		fmt.Printf("%4d  %8.1f\n", i+1, r/1000)
	}
	st := f.Sender.Stats()
	fmt.Printf("\nsummary: sent=%d retx=%d delivered=%d rate=%.0fB/s rtt=%v p=%.5f\n",
		st.DataBytesSent, st.RetransFrames, f.DeliveredBytes,
		f.Sender.Rate(), f.Sender.RTT(), f.Sender.LossRate())
	if multiRun {
		fmt.Printf("\nper-stream ledger:\n")
		for _, id := range streamIDs {
			snd, _ := f.Sender.StreamStats(id)
			rcv, _ := f.Receiver.StreamStats(id)
			fmt.Printf("  stream %d %-18v sent=%dB retx=%d abandoned=%d delivered=%dB skipped=%d\n",
				id, snd.Mode, snd.DataBytesSent, snd.RetransFrames, snd.AbandonedSegs,
				rcv.DeliveredBytes, rcv.SkippedSegs)
		}
	}
}

// startFlow builds qtpsim's path — a forward bottleneck with the
// configured rate, queue and loss, a clean 1 Gb/s reverse link, both
// with half the RTT — and starts one flow with the given profile over
// it.
func startFlow(o *options, prof core.Profile, bulk bool) (*netsim.Sim, *qtp.Flow) {
	var lm netsim.LossModel
	if o.loss > 0 {
		if o.burst {
			lm = netsim.NewGilbertElliott(o.loss/10, 0.4, o.loss/2, 0.15)
		} else {
			lm = netsim.Bernoulli{P: o.loss}
		}
	}
	sim := netsim.New(o.seed)
	toRecv, toSend := &netsim.Indirect{}, &netsim.Indirect{}
	fwd := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "fwd", Rate: o.rate, Delay: o.rtt / 2,
		Queue: netsim.NewDropTail(o.queue), Loss: lm, Dst: toRecv,
	})
	rev := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: o.rtt / 2,
		Queue: &netsim.DropTail{}, Dst: toSend,
	})
	f := qtp.StartFlow(sim, qtp.FlowConfig{
		ID: 1, Profile: prof, RTTHint: o.rtt, Fwd: fwd, Rev: rev, Bulk: bulk,
	})
	toRecv.Target = f.ReceiverEntry()
	toSend.Target = f.SenderEntry()
	return sim, f
}

// runCCMatrix runs one bulk flow per congestion controller — TFRC,
// gTFRC with target -g, and BBR — over the same path and seed, and
// prints the head-to-head. -assert-ratio r > 0 turns the BBR row into a
// gate: the process exits non-zero unless BBR delivered at least r ×
// TFRC's bytes.
func runCCMatrix(o *options) {
	bbrProf := core.QTPLightReliable(0)
	bbrProf.Congestion = packet.CongestionBBR
	rows := []struct {
		name string
		prof core.Profile
	}{
		{"tfrc", core.QTPLightReliable(0)},
		{"gtfrc", core.QTPAF(o.g)},
		{"bbr", bbrProf},
	}

	fmt.Printf("# cc-matrix rate=%.0f rtt=%v loss=%.3f queue=%d dur=%v seed=%d g=%.0f\n",
		o.rate, o.rtt, o.loss, o.queue, o.dur, o.seed, o.g)
	fmt.Println("cc     delivered(B)   goodput(kB/s)   retx      vs-tfrc")
	var tfrcBytes, bbrBytes int
	for _, row := range rows {
		sim, f := startFlow(o, row.prof, true)
		sim.Run(o.dur)
		delivered := f.DeliveredBytes
		if row.name == "tfrc" {
			tfrcBytes = delivered
		}
		if row.name == "bbr" {
			bbrBytes = delivered
		}
		ratio := 0.0
		if tfrcBytes > 0 {
			ratio = float64(delivered) / float64(tfrcBytes)
		}
		fmt.Printf("%-6s %12d %15.1f %6d %10.2fx\n",
			row.name, delivered, float64(delivered)/o.dur.Seconds()/1000,
			f.Sender.Stats().RetransFrames, ratio)
	}
	if o.assertRatio > 0 {
		if tfrcBytes == 0 {
			log.Fatal("cc-matrix: TFRC delivered nothing — topology broken")
		}
		if got := float64(bbrBytes) / float64(tfrcBytes); got < o.assertRatio {
			log.Fatalf("cc-matrix: BBR/TFRC = %.2fx, want >= %.2fx", got, o.assertRatio)
		}
	}
}
