package bbr

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seqspace"
)

// The controller must satisfy the congestion-control role.
var _ core.RateController = (*Controller)(nil)

const testMSS = 1200

func newTest() *Controller { return New(Config{MSS: testMSS}) }

// --- windowed max filter ---

func TestMaxFilterTracksAndDecays(t *testing.T) {
	cases := []struct {
		name    string
		samples []struct {
			v float64
			t uint64
		}
		want float64
	}{
		{
			name: "max wins within window",
			samples: []struct {
				v float64
				t uint64
			}{{100, 0}, {300, 1}, {200, 2}},
			want: 300,
		},
		{
			name: "peak expires after window rounds",
			samples: []struct {
				v float64
				t uint64
			}{{300, 0}, {100, 5}, {100, 11}, {100, 12}},
			want: 100,
		},
		{
			name: "second best promoted when best ages out",
			samples: []struct {
				v float64
				t uint64
			}{{300, 0}, {200, 8}, {100, 11}},
			want: 200,
		},
		{
			name: "monotone rise always adopts",
			samples: []struct {
				v float64
				t uint64
			}{{10, 0}, {20, 1}, {30, 2}, {40, 3}},
			want: 40,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f maxFilter
			f.window = bwWindowRounds
			for _, s := range tc.samples {
				f.update(s.v, s.t)
			}
			if got := f.get(); got != tc.want {
				t.Fatalf("get() = %v, want %v", got, tc.want)
			}
		})
	}
}

// --- delivery-rate sampling ---

func TestDeliveryRateSample(t *testing.T) {
	c := newTest()
	c.Start(0)
	// Two packets sent back to back; acks arrive such that 2·MSS were
	// delivered over 20ms → 120 kB/s.
	c.OnSent(0, 1, testMSS)
	c.OnSent(time.Millisecond, 2, testMSS)
	c.OnAcked(40*time.Millisecond, 1, testMSS, 40*time.Millisecond)
	c.OnAcked(60*time.Millisecond, 2, testMSS, 40*time.Millisecond)
	// Packet 2's snapshot: delivered=0 at t=1ms... wait, deliveredTime
	// snapshot is t=0 (start); sample = (2·MSS-0)/(60ms-0) = 40 kB/s.
	// Packet 1's: MSS/40ms = 30 kB/s. Max filter keeps the larger.
	want := float64(2*testMSS) / 0.060
	if got := c.Bandwidth(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("Bandwidth() = %v, want ≈%v", got, want)
	}
}

func TestDuplicateAckIgnored(t *testing.T) {
	c := newTest()
	c.Start(0)
	// Seq 1 stays outstanding so the acked seq 2 remains in the ring
	// (the resolved prefix is pruned; mid-ring records are not).
	c.OnSent(0, 1, testMSS)
	c.OnSent(0, 2, testMSS)
	c.OnAcked(10*time.Millisecond, 2, testMSS, 10*time.Millisecond)
	d := c.delivered
	c.OnAcked(20*time.Millisecond, 2, testMSS, 10*time.Millisecond)
	if c.delivered != d {
		t.Fatal("duplicate ack inflated delivered counter")
	}
	if c.InFlight() != testMSS {
		t.Fatalf("inflight = %d, want %d (seq 1 outstanding)", c.InFlight(), testMSS)
	}
}

func TestAckAfterLossStillDelivers(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.OnSent(0, 1, testMSS)
	c.OnLost(30*time.Millisecond, 1, testMSS)
	if c.InFlight() != 0 {
		t.Fatalf("inflight after loss = %d, want 0", c.InFlight())
	}
	c.OnAcked(50*time.Millisecond, 1, testMSS, 0)
	if c.delivered != testMSS {
		t.Fatal("late ack of a lost-marked packet must still count as delivered")
	}
	if c.InFlight() != 0 {
		t.Fatalf("inflight went negative-ish: %d", c.InFlight())
	}
}

// --- inflight cap ---

func TestInitialWindowCapsSending(t *testing.T) {
	c := newTest()
	c.Start(0)
	var seq seqspace.Seq = 1
	for i := 0; i < initialCwndSegs; i++ {
		if !c.CanSend() {
			t.Fatalf("CanSend() false after %d of %d initial segments", i, initialCwndSegs)
		}
		c.OnSent(0, seq, testMSS)
		seq = seq.Next()
	}
	if c.CanSend() {
		t.Fatal("CanSend() true with a full initial window outstanding")
	}
	c.OnAcked(40*time.Millisecond, 1, testMSS, 40*time.Millisecond)
	if !c.CanSend() {
		t.Fatal("CanSend() still false after an ack drained the window")
	}
}

func TestOnNoFeedbackReleasesWindow(t *testing.T) {
	c := newTest()
	c.Start(0)
	var seq seqspace.Seq = 1
	for c.CanSend() {
		c.OnSent(0, seq, testMSS)
		seq = seq.Next()
	}
	c.OnNoFeedback(2 * time.Second)
	if !c.CanSend() {
		t.Fatal("nofeedback expiry must release the inflight window")
	}
	if c.InFlight() != 0 {
		t.Fatalf("inflight = %d after nofeedback reset", c.InFlight())
	}
	if c.NoFeedbackDeadline() <= 2*time.Second {
		t.Fatal("deadline not re-armed")
	}
}

// --- state machine ---

// pump drives one synthetic round: rounds segments acked at a steady
// sample rate, advancing the clock by rtt each round.
type pump struct {
	c    *Controller
	now  time.Duration
	seq  seqspace.Seq
	rtt  time.Duration
	rate float64 // modeled delivery bandwidth, B/s
}

func (p *pump) round(n int) {
	start := p.seq
	for i := 0; i < n; i++ {
		p.c.OnSent(p.now, p.seq, testMSS)
		p.seq = p.seq.Next()
	}
	p.now += p.rtt
	// Acks spaced so the measured delivery rate is p.rate.
	gap := time.Duration(float64(testMSS) / p.rate * float64(time.Second))
	for i := 0; i < n; i++ {
		p.c.OnAcked(p.now, start.Add(i), testMSS, p.rtt)
		p.now += gap
	}
}

func TestStartupExitsOnPlateauIntoDrainThenProbeBW(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	p := &pump{c: c, now: 0, seq: 1, rtt: 40 * time.Millisecond, rate: 1.25e6}
	if c.State() != StateStartup {
		t.Fatalf("initial state = %v", c.State())
	}
	// Constant delivery rate: growth stalls immediately, so after
	// fullBwRounds+slack rounds startup must have ended.
	for i := 0; i < fullBwRounds+3; i++ {
		p.round(4)
	}
	if !c.fullPipe {
		t.Fatal("plateaued bandwidth never declared the pipe full")
	}
	if c.State() == StateStartup {
		t.Fatalf("still in startup after plateau: %v", c.State())
	}
	// Drain exits once inflight ≤ BDP; with everything acked each round,
	// inflight is 0 at round end, so the next event lands in ProbeBW.
	p.round(4)
	if c.State() != StateProbeBW {
		t.Fatalf("state = %v, want probe-bw", c.State())
	}
	if g := c.pacingGain; g != probeBWGains[c.cycleIdx] {
		t.Fatalf("pacing gain %v not from the probe-bw cycle", g)
	}
}

func TestProbeBWCyclesGains(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	p := &pump{c: c, now: 0, seq: 1, rtt: 40 * time.Millisecond, rate: 1.25e6}
	for i := 0; i < fullBwRounds+4; i++ {
		p.round(4)
	}
	if c.State() != StateProbeBW {
		t.Skipf("did not reach probe-bw: %v", c.State())
	}
	seen := map[float64]bool{}
	for i := 0; i < 4*len(probeBWGains); i++ {
		p.round(2)
		seen[c.pacingGain] = true
	}
	if !seen[1.25] || !seen[0.75] || !seen[1] {
		t.Fatalf("gain cycle incomplete: saw %v", seen)
	}
}

func TestMinRTTExpiryEntersProbeRTTAndAdoptsNewFloor(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	p := &pump{c: c, now: 0, seq: 1, rtt: 40 * time.Millisecond, rate: 1.25e6}
	p.round(4)
	if c.MinRTT() != 40*time.Millisecond {
		t.Fatalf("minRTT = %v", c.MinRTT())
	}
	// Path RTT grows to 60ms; the min filter must not move up on its
	// own...
	p.rtt = 60 * time.Millisecond
	p.round(4)
	if c.MinRTT() != 40*time.Millisecond {
		t.Fatalf("min filter moved up without probing: %v", c.MinRTT())
	}
	// ...but once the 10s window expires, an ack enters ProbeRTT, with
	// the inflight cap cut to the floor. (Check per round: the probe
	// also exits within a few rounds, so a coarse time check would
	// race past it.)
	for i := 0; i < 400 && c.State() != StateProbeRTT; i++ {
		p.round(4)
	}
	if c.State() != StateProbeRTT {
		t.Fatalf("state = %v, want probe-rtt after min-RTT expiry", c.State())
	}
	if got, want := c.cwnd(), minCwndSegs*testMSS; got != want {
		t.Fatalf("probe-rtt cwnd = %d, want floor %d", got, want)
	}
	// Holding the probe for its duration adopts the re-measured floor.
	probeStart := p.now
	for p.now < probeStart+2*probeRTTDuration {
		p.round(1)
	}
	if c.State() == StateProbeRTT {
		t.Fatalf("probe-rtt never exited")
	}
	if c.MinRTT() != 60*time.Millisecond {
		t.Fatalf("minRTT after probe = %v, want re-measured 60ms", c.MinRTT())
	}
}

// --- pacing contract ---

func TestPacingRateFollowsGainTimesBandwidth(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	p := &pump{c: c, now: 0, seq: 1, rtt: 40 * time.Millisecond, rate: 1.25e6}
	for i := 0; i < fullBwRounds+4; i++ {
		p.round(4)
	}
	want := c.pacingGain * c.Bandwidth()
	if got := c.PacingRate(); got != want {
		t.Fatalf("PacingRate() = %v, want gain×bw = %v", got, want)
	}
	iv := c.InterPacketInterval(testMSS)
	wantIV := time.Duration(float64(testMSS) / want * float64(time.Second))
	if iv != wantIV {
		t.Fatalf("InterPacketInterval = %v, want %v", iv, wantIV)
	}
}

func TestPreEstimatePacingUsesSeededRTT(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 100*time.Millisecond)
	// Initial window over the seeded RTT, scaled by the startup gain.
	want := highGain * float64(initialCwndSegs*testMSS) / 0.1
	if got := c.PacingRate(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("pre-estimate PacingRate() = %v, want ≈%v", got, want)
	}
	// With no RTT at all: the one-segment-per-second trickle floor.
	c2 := newTest()
	c2.Start(0)
	if got := c2.PacingRate(); got != float64(testMSS) {
		t.Fatalf("no-RTT PacingRate() = %v, want %v", got, float64(testMSS))
	}
}

func TestLossTelemetry(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.OnSent(0, 1, testMSS)
	c.OnSent(0, 2, testMSS)
	c.OnLost(50*time.Millisecond, 2, testMSS)
	if got := c.LossRate(); got != 0.5 {
		t.Fatalf("LossRate() = %v, want 0.5", got)
	}
}

func TestRingResyncsOnSeqGap(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.OnSent(0, 1, testMSS)
	c.OnSent(0, 100, testMSS) // gap: caller skipped numbers
	c.OnAcked(40*time.Millisecond, 100, testMSS, 40*time.Millisecond)
	if c.delivered != testMSS {
		t.Fatalf("post-resync ack not credited: delivered=%d", c.delivered)
	}
}

// TestRampBeatsEquationCap is the estimator's reason to exist: on a
// large-BDP path with light random loss, the TFRC throughput equation
// caps X ≈ s/(R·sqrt(2p/3)) regardless of capacity, while the
// bandwidth×RTT model converges on the link. Drive the controller
// against a modeled 100 Mbit/s, 100 ms path and check the estimate
// clears the equation cap by a wide margin within a 10 s ramp.
func TestRampBeatsEquationCap(t *testing.T) {
	const (
		linkBw = 12.5e6 // bytes/s
		rtt    = 100 * time.Millisecond
	)
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, rtt)

	type pkt struct {
		seq   seqspace.Seq
		ackAt time.Duration
	}
	var (
		now        time.Duration
		seq        seqspace.Seq = 1
		nextSend   time.Duration
		lastDepart time.Duration
		acks       []pkt
	)
	serialize := time.Duration(float64(testMSS) / linkBw * float64(time.Second))
	for now < 10*time.Second {
		for c.CanSend() && now >= nextSend {
			depart := now
			if depart < lastDepart {
				depart = lastDepart
			}
			depart += serialize
			lastDepart = depart
			acks = append(acks, pkt{seq, depart + rtt})
			c.OnSent(now, seq, testMSS)
			seq = seq.Next()
			nextSend = now + c.InterPacketInterval(testMSS)
		}
		next := 10 * time.Second
		if len(acks) > 0 && acks[0].ackAt < next {
			next = acks[0].ackAt
		}
		if c.CanSend() && nextSend > now && nextSend < next {
			next = nextSend
		}
		if next <= now {
			next = now + time.Millisecond
		}
		now = next
		for len(acks) > 0 && acks[0].ackAt <= now {
			a := acks[0]
			acks = acks[1:]
			c.OnAcked(now, a.seq, testMSS, 0)
		}
	}
	// TFRC's equation at p=0.001, s=1200B, R=100ms caps near 540 kB/s.
	// The estimator should be within 25% of the 12.5 MB/s link.
	if bw := c.Bandwidth(); bw < 0.75*linkBw {
		t.Fatalf("Bandwidth() = %.0f B/s after 10s ramp, want ≥ %.0f (75%% of link)",
			bw, 0.75*linkBw)
	}
	if !c.fullPipe {
		t.Fatal("pipe never declared full on a clean link")
	}
}

func BenchmarkOnSentOnAcked(b *testing.B) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	var seq seqspace.Seq = 1
	now := time.Duration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.OnSent(now, seq, testMSS)
		c.OnAcked(now+40*time.Millisecond, seq, testMSS, 40*time.Millisecond)
		seq = seq.Next()
		now += 10 * time.Microsecond
	}
}
