// Package bbr implements a BBR-style congestion controller: a
// bandwidth×RTT estimator in the spirit of Cardwell et al.'s BBR v1
// ("BBR: Congestion-Based Congestion Control", ACM Queue 2016), adapted
// to QTP's sans-IO, feedback-frame world.
//
// Where the TFRC family computes an allowed rate from a loss-event
// equation — which caps throughput at s/(R·sqrt(2p/3)) no matter how
// much capacity the path has — BBR builds an explicit model of the path
// from per-packet delivery samples: the bottleneck bandwidth is the
// windowed maximum of measured delivery rates, the propagation delay is
// the windowed minimum of RTT samples, and the controller paces at the
// estimated bandwidth (scaled by a state-machine gain) while capping
// the bytes in flight near one bandwidth-delay product. Random loss
// that would collapse the TFRC equation barely moves the model, which
// is exactly why the estimator wins on large-BDP and lossy paths.
//
// The controller is fed through the core.RateController contract:
// OnSent for every first transmission, OnAckVector for every
// acknowledgment vector. It reads no receiver report (core.Profile pairs
// it with ack-vector feedback). Its send ring is the connection's one
// per-packet ledger: each vector is diffed against it into
// acknowledgments and dup-threshold losses. It never owns
// packets or timers; like every QTP micro-protocol it is deterministic
// given its inputs, so simulator runs replay bit-exactly.
package bbr

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/seqspace"
)

// State is the controller's lifecycle phase.
type State int

// Controller states, in the order a flow traverses them.
const (
	// StateStartup grows the rate 2.885x per round until the bandwidth
	// estimate plateaus (the pipe is full).
	StateStartup State = iota
	// StateDrain pulls the startup queue back out of the bottleneck
	// buffer with an inverse gain.
	StateDrain
	// StateProbeBW cycles pacing gain around 1.0 — probe up one round,
	// drain the probe next round, cruise six — holding the operating
	// point at the estimated BDP while periodically rediscovering
	// capacity.
	StateProbeBW
	// StateProbeRTT periodically cuts the inflight cap to four segments
	// so queues drain and the min-RTT window can refresh.
	StateProbeRTT
)

var stateNames = [...]string{"startup", "drain", "probe-bw", "probe-rtt"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Gains and windows, per the BBR v1 paper and Linux implementation.
const (
	// highGain is 2/ln(2): the smallest gain that doubles the delivery
	// rate each round during startup.
	highGain = 2.0 / 0.693147180559945
	// drainGain empties the queue startup built.
	drainGain = 1 / highGain
	// cwndGain bounds inflight at twice the BDP outside startup, room
	// for delayed/aggregated acknowledgments (QTP feedback can arrive
	// once per RTT, so a full round's acks land in one burst).
	cwndGain = 2.0
	// bwWindowRounds is the max-bandwidth filter window in packet-timed
	// round trips.
	bwWindowRounds = 10
	// minRTTWindow is how long a min-RTT sample stays fresh before the
	// controller probes for a new one.
	minRTTWindow = 10 * time.Second
	// probeRTTDuration is how long ProbeRTT holds the floor cwnd.
	probeRTTDuration = 200 * time.Millisecond
	// fullBwThresh declares the pipe full when a round grew the
	// bandwidth estimate by less than 25%.
	fullBwThresh = 1.25
	// fullBwRounds is how many plateau rounds end startup.
	fullBwRounds = 3
	// minCwndSegs floors the inflight cap (and is the whole cap during
	// ProbeRTT).
	minCwndSegs = 4
	// initialCwndSegs seeds the cap before any bandwidth estimate
	// exists (RFC 6928's initial window spirit).
	initialCwndSegs = 10
)

// probeBWGains is the ProbeBW pacing-gain cycle: probe, drain, cruise.
var probeBWGains = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// Config configures a Controller.
type Config struct {
	// MSS is the segment size in bytes (required); cwnd floors and the
	// pre-estimate initial window are expressed in segments of this
	// size.
	MSS int
}

// sentRecord is the controller's memory of one first transmission —
// everything a delivery-rate sample needs when the acknowledgment
// arrives.
type sentRecord struct {
	bytes       int32
	flags       uint8 // recSent | recAcked | recLost
	sentAt      time.Duration
	delivered   int64         // delivered-bytes snapshot at send time
	deliveredAt time.Duration // deliveredTime snapshot at send time
}

const (
	recSent uint8 = 1 << iota
	recAcked
	recLost
)

// Controller is the BBR-style rate controller. It satisfies
// core.RateController (asserted in that package's tests) and is driven
// entirely by the connection state machine; it is not safe for
// concurrent use.
type Controller struct {
	cfg Config

	state      State
	pacingGain float64
	cwndGainC  float64 // current cwnd gain (state-dependent)

	// Path model.
	bw     maxFilter     // bottleneck bandwidth, bytes/s, windowed max
	minRTT time.Duration // windowed min RTT (0 = no sample yet)
	rttAt  time.Duration // when minRTT was last refreshed
	srtt   time.Duration // smoothed RTT for timers/telemetry

	// Delivery accounting.
	delivered     int64 // total bytes delivered (acked), ever
	deliveredTime time.Duration
	inFlight      int

	// Send record ring, keyed by sequence offset from base.
	base    seqspace.Seq
	next    seqspace.Seq
	ring    []sentRecord
	started bool

	// Round counting: a round ends when a packet sent after the prior
	// round's end is acknowledged.
	roundCount     uint64
	nextRoundDeliv int64

	// Startup plateau detection.
	fullBw      float64
	fullBwCount int
	fullPipe    bool

	// ProbeBW cycle position.
	cycleIdx     int
	cycleStart   time.Duration
	probeRTTDone time.Duration // when ProbeRTT may end (0 = not armed)
	probeRTTMin  time.Duration // smallest sample observed during ProbeRTT
	prevState    State         // state to restore after ProbeRTT

	// Loss accounting for telemetry (the model itself ignores loss).
	sentBytes int64
	lostBytes int64

	deadline time.Duration // nofeedback deadline
}

// New returns a controller in Startup.
func New(cfg Config) *Controller {
	if cfg.MSS <= 0 {
		panic("bbr: MSS required")
	}
	c := &Controller{
		cfg:        cfg,
		state:      StateStartup,
		pacingGain: highGain,
		cwndGainC:  highGain,
	}
	c.bw.window = bwWindowRounds
	return c
}

// Start begins transmission; the first nofeedback deadline is two
// seconds out, like TFRC's.
func (c *Controller) Start(now time.Duration) {
	c.deadline = now + 2*time.Second
}

// SeedRTT installs a setup-time RTT measurement.
func (c *Controller) SeedRTT(now, sample time.Duration) {
	if sample <= 0 {
		return
	}
	c.rttSample(now, sample)
	c.deadline = now + c.noFeedbackInterval()
}

// OnSent records the first transmission of seq (bytes on the wire).
// First transmissions arrive in sequence order; retransmissions are not
// reported.
func (c *Controller) OnSent(now time.Duration, seq seqspace.Seq, bytes int) {
	if !c.started {
		c.started = true
		c.base, c.next = seq, seq
		c.deliveredTime = now
	}
	if seq != c.next {
		// A gap means the caller skipped numbers (it shouldn't); resync
		// rather than corrupt the ring.
		c.ring = c.ring[:0]
		c.base, c.next = seq, seq
	}
	c.ring = append(c.ring, sentRecord{
		bytes:       int32(bytes),
		flags:       recSent,
		sentAt:      now,
		delivered:   c.delivered,
		deliveredAt: c.deliveredTime,
	})
	c.next = seq.Next()
	c.inFlight += bytes
	c.sentBytes += int64(bytes)
}

// record returns the ring entry for seq, nil when seq predates the ring
// base (already pruned) or was never sent.
func (c *Controller) record(seq seqspace.Seq) *sentRecord {
	d := c.base.Distance(seq)
	if d < 0 || d >= len(c.ring) {
		return nil
	}
	return &c.ring[d]
}

// OnAckVector diffs one acknowledgment vector against the send ring.
// First every record below cum or inside one of ranges is acknowledged,
// lowest seq first; then, from the top down, every unacknowledged record
// with seqspace.DupThresh acknowledged records above it is declared lost.
// rtt is the frame's timestamp-echo sample (0 if none). A packet the ring
// already wrote off and pruned is not credited when its ack arrives late.
// Last, the vector is feedback in its own right: rtt goes to OnFeedback,
// which re-arms the nofeedback deadline even when nothing was newly
// covered.
func (c *Controller) OnAckVector(now time.Duration, cum seqspace.Seq, ranges []seqspace.Range, rtt time.Duration) {
	for i := range c.ring {
		rec := &c.ring[i]
		if rec.flags&recAcked == 0 && covered(c.base.Add(i), cum, ranges) {
			c.ack(now, rec, rtt)
		}
	}
	ackedAbove := 0
	for i := len(c.ring) - 1; i >= 0; i-- {
		if c.ring[i].flags&recAcked != 0 {
			ackedAbove++
		} else if ackedAbove >= seqspace.DupThresh {
			c.lose(&c.ring[i])
		}
	}
	c.prune()
	c.OnFeedback(now, core.Feedback{RTTSample: rtt})
}

// covered reports whether an acknowledgment vector covers seq.
func covered(seq, cum seqspace.Seq, ranges []seqspace.Range) bool {
	if seq.Less(cum) {
		return true
	}
	for _, r := range ranges {
		if r.Contains(seq) {
			return true
		}
	}
	return false
}

// OnAcked records that seq is newly acknowledged. bytes is advisory
// (the send record is authoritative); rtt is a fresh sample when the
// acknowledgment carried one.
func (c *Controller) OnAcked(now time.Duration, seq seqspace.Seq, bytes int, rtt time.Duration) {
	rec := c.record(seq)
	if rec == nil {
		// A seq outside the ring, reached only by a caller that acks
		// packets directly: no rate sample possible, but the bytes were
		// delivered — the caller reports each packet acked at most once.
		if bytes > 0 {
			c.delivered += int64(bytes)
			c.deliveredTime = now
		}
		return
	}
	if rec.flags&recAcked != 0 {
		return
	}
	c.ack(now, rec, rtt)
	c.prune()
}

// ack credits one newly acknowledged send record: inflight, the
// delivery-rate and RTT samples, round counting and the state machine.
func (c *Controller) ack(now time.Duration, rec *sentRecord, rtt time.Duration) {
	if rec.flags&recLost == 0 {
		c.inFlight -= int(rec.bytes)
		if c.inFlight < 0 {
			c.inFlight = 0
		}
	}
	rec.flags |= recAcked
	rec.flags &^= recLost

	c.delivered += int64(rec.bytes)
	c.deliveredTime = now

	// Delivery-rate sample: bytes delivered since this packet left,
	// over the time that took. The max filter keeps the best sample
	// per window, so aggregated ack bursts (QTP feedback can carry a
	// whole round) still measure the true rate across the burst gap.
	if interval := now - rec.deliveredAt; interval > 0 {
		sample := float64(c.delivered-rec.delivered) / interval.Seconds()
		c.bw.update(sample, c.roundCount)
	}

	// Round accounting: this ack ends a round if the packet was sent
	// at or after the last round boundary.
	if rec.delivered >= c.nextRoundDeliv {
		c.roundCount++
		c.nextRoundDeliv = c.delivered
		c.onRoundEnd(now)
	}

	if rtt <= 0 {
		// No explicit sample: the send-to-ack gap is a valid upper
		// bound (min filters only move down, so a loose bound is safe).
		rtt = now - rec.sentAt
	}
	c.rttSample(now, rtt)

	c.advanceState(now)
	c.deadline = now + c.noFeedbackInterval()
}

// OnLost records that seq was declared lost.
func (c *Controller) OnLost(now time.Duration, seq seqspace.Seq, bytes int) {
	if rec := c.record(seq); rec != nil {
		c.lose(rec)
		c.prune()
	}
}

// lose writes off one unresolved send record. The path model ignores
// loss (that is the point); only inflight and telemetry move.
func (c *Controller) lose(rec *sentRecord) {
	if rec.flags&(recAcked|recLost) != 0 {
		return
	}
	rec.flags |= recLost
	c.inFlight -= int(rec.bytes)
	if c.inFlight < 0 {
		c.inFlight = 0
	}
	c.lostBytes += int64(rec.bytes)
}

// OnFeedback takes an RTT sample and re-arms the nofeedback deadline.
// OnAckVector ends with it; XRecv and P, the equation family's food, are
// ignored.
func (c *Controller) OnFeedback(now time.Duration, fb core.Feedback) {
	if fb.RTTSample > 0 {
		c.rttSample(now, fb.RTTSample)
	}
	c.deadline = now + c.noFeedbackInterval()
}

// OnNoFeedback handles feedback-timer expiry: assume everything in
// flight died with the path and restart conservatively. The bandwidth
// window is aged one full window so a dead path's stale estimate decays
// instead of pinning the rate at pre-outage levels.
func (c *Controller) OnNoFeedback(now time.Duration) {
	c.inFlight = 0
	for i := range c.ring {
		if c.ring[i].flags&(recAcked|recLost) == 0 {
			c.ring[i].flags |= recLost
			c.lostBytes += int64(c.ring[i].bytes)
		}
	}
	c.prune()
	c.roundCount += bwWindowRounds / 2
	c.deadline = now + c.noFeedbackInterval()
}

// rttSample feeds one RTT measurement into the min filter and the
// smoothed estimate. The min filter only moves down — expiry of the
// window is handled by ProbeRTT adopting the smallest sample it
// observed, so a path whose propagation delay grew is re-measured
// rather than pinned at history.
func (c *Controller) rttSample(now time.Duration, sample time.Duration) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
	} else {
		c.srtt = (7*c.srtt + sample) / 8
	}
	if c.state == StateProbeRTT &&
		(c.probeRTTMin == 0 || sample < c.probeRTTMin) {
		c.probeRTTMin = sample
	}
	if c.minRTT == 0 || sample <= c.minRTT {
		c.minRTT = sample
		c.rttAt = now
	}
}

// onRoundEnd runs once per packet-timed round trip: startup plateau
// detection.
func (c *Controller) onRoundEnd(now time.Duration) {
	if c.fullPipe {
		return
	}
	if bw := c.bw.get(); bw >= c.fullBw*fullBwThresh {
		c.fullBw = bw
		c.fullBwCount = 0
		return
	}
	c.fullBwCount++
	if c.fullBwCount >= fullBwRounds {
		c.fullPipe = true
	}
}

// advanceState runs the Startup→Drain→ProbeBW / ProbeRTT machine.
func (c *Controller) advanceState(now time.Duration) {
	// ProbeRTT entry: the min-RTT window expired and we are not already
	// probing.
	if c.state != StateProbeRTT && c.minRTT > 0 && now-c.rttAt > minRTTWindow {
		c.prevState = c.state
		c.state = StateProbeRTT
		c.pacingGain = 1
		c.probeRTTDone = now + probeRTTDuration
		c.probeRTTMin = 0
	}
	switch c.state {
	case StateStartup:
		c.pacingGain, c.cwndGainC = highGain, highGain
		if c.fullPipe {
			c.state = StateDrain
			c.pacingGain = drainGain
		}
	case StateDrain:
		c.cwndGainC = highGain
		if c.inFlight <= c.bdp(1) {
			c.enterProbeBW(now)
		}
	case StateProbeBW:
		c.cwndGainC = cwndGain
		// Advance the gain cycle once per min-RTT.
		if now-c.cycleStart >= c.cycleInterval() {
			c.cycleIdx = (c.cycleIdx + 1) % len(probeBWGains)
			c.cycleStart = now
		}
		c.pacingGain = probeBWGains[c.cycleIdx]
	case StateProbeRTT:
		c.cwndGainC = cwndGain
		if c.probeRTTDone != 0 && now >= c.probeRTTDone {
			if c.probeRTTMin > 0 {
				// Adopt what the drained pipe actually measured, even if
				// the path's propagation delay grew past the old minimum.
				c.minRTT = c.probeRTTMin
			}
			c.rttAt = now // window refreshed by the drain
			c.probeRTTDone = 0
			if c.prevState == StateProbeBW || c.fullPipe {
				c.enterProbeBW(now)
			} else {
				c.state = StateStartup
				c.pacingGain, c.cwndGainC = highGain, highGain
			}
		}
	}
}

func (c *Controller) enterProbeBW(now time.Duration) {
	c.state = StateProbeBW
	c.cwndGainC = cwndGain
	// Start in a cruise phase so the drain that got us here sticks.
	c.cycleIdx = 2
	c.cycleStart = now
	c.pacingGain = probeBWGains[c.cycleIdx]
}

// cycleInterval is one ProbeBW gain-cycle phase: the estimated
// propagation delay.
func (c *Controller) cycleInterval() time.Duration {
	if c.minRTT > 0 {
		return c.minRTT
	}
	return 100 * time.Millisecond
}

// bdp returns gain × bandwidth-delay product in bytes, 0 when the model
// is empty.
func (c *Controller) bdp(gain float64) int {
	bw := c.bw.get()
	if bw <= 0 || c.minRTT <= 0 {
		return 0
	}
	return int(gain * bw * c.minRTT.Seconds())
}

// PacingRate returns the allowed sending rate in bytes/second: the
// state gain times the bandwidth estimate, or a seeded initial rate
// while the model is empty.
func (c *Controller) PacingRate() float64 {
	if bw := c.bw.get(); bw > 0 {
		r := c.pacingGain * bw
		return max(r, c.minRate())
	}
	// No delivery sample yet: pace the initial window over the seeded
	// RTT (with the startup gain so the first round can already grow),
	// or trickle one segment per second with no RTT at all.
	if c.minRTT > 0 {
		return highGain * float64(initialCwndSegs*c.cfg.MSS) / c.minRTT.Seconds()
	}
	return c.minRate()
}

// minRate floors the pacing rate in bytes/s: one segment per second,
// matching TFRC's pre-RTT trickle.
func (c *Controller) minRate() float64 { return float64(c.cfg.MSS) }

// InterPacketInterval returns size/PacingRate.
func (c *Controller) InterPacketInterval(size int) time.Duration {
	return time.Duration(float64(size) / c.PacingRate() * float64(time.Second))
}

// cwnd returns the inflight cap in bytes.
func (c *Controller) cwnd() int {
	if c.state == StateProbeRTT {
		return minCwndSegs * c.cfg.MSS
	}
	w := c.bdp(c.cwndGainC)
	if !c.fullPipe {
		// Never shrink below the initial window while still filling the
		// pipe: the first delivery samples undershoot badly and would
		// otherwise stall startup.
		if iw := initialCwndSegs * c.cfg.MSS; w < iw {
			w = iw
		}
	}
	if min := minCwndSegs * c.cfg.MSS; w < min {
		w = min
	}
	return w
}

// CanSend reports whether the inflight cap admits another segment.
func (c *Controller) CanSend() bool {
	return c.inFlight < c.cwnd()
}

// RTT returns the smoothed round-trip estimate.
func (c *Controller) RTT() time.Duration { return c.srtt }

// NoFeedbackDeadline returns when OnNoFeedback is next due.
func (c *Controller) NoFeedbackDeadline() time.Duration { return c.deadline }

func (c *Controller) noFeedbackInterval() time.Duration {
	if c.srtt == 0 {
		return 2 * time.Second
	}
	iv := 4 * c.srtt
	if iv < time.Second {
		iv = time.Second
	}
	return iv
}

// Bandwidth returns the current bottleneck-bandwidth estimate, bytes/s.
func (c *Controller) Bandwidth() float64 { return c.bw.get() }

// MinRTT returns the windowed minimum RTT (0 = no sample yet).
func (c *Controller) MinRTT() time.Duration { return c.minRTT }

// State returns the controller's phase.
func (c *Controller) State() State { return c.state }

// InFlight returns the bytes the controller believes are outstanding.
func (c *Controller) InFlight() int { return c.inFlight }

// LossRate returns lifetime lost/sent bytes — telemetry, not model
// input.
func (c *Controller) LossRate() float64 {
	if c.sentBytes == 0 {
		return 0
	}
	return float64(c.lostBytes) / float64(c.sentBytes)
}

// StateBytes returns the controller's memory footprint (E4-style
// metric): the fixed struct plus the live send-record ring.
func (c *Controller) StateBytes() int {
	return 256 + cap(c.ring)*32
}

// prune drops the resolved prefix of the send-record ring so its length
// tracks the inflight window, not the connection lifetime.
func (c *Controller) prune() {
	i := 0
	for i < len(c.ring) && c.ring[i].flags&(recAcked|recLost) != 0 {
		i++
	}
	if i == 0 {
		return
	}
	c.base = c.base.Add(i)
	c.ring = c.ring[:copy(c.ring, c.ring[i:])]
}

// maxFilter is a windowed max filter over round-counted samples: it
// keeps the best, second-best and third-best samples with their round
// stamps (Google's windowed_filter structure), so the estimate decays
// within one window of the peak leaving the network.
type maxFilter struct {
	window  uint64
	samples [3]struct {
		v float64
		t uint64
	}
}

func (f *maxFilter) update(v float64, t uint64) {
	s := &f.samples
	if v >= s[0].v || t-s[2].t > f.window {
		s[0] = struct {
			v float64
			t uint64
		}{v, t}
		s[1], s[2] = s[0], s[0]
		return
	}
	if v >= s[1].v {
		s[1] = struct {
			v float64
			t uint64
		}{v, t}
		s[2] = s[1]
	} else if v >= s[2].v {
		s[2] = struct {
			v float64
			t uint64
		}{v, t}
	}
	// Age out a stale best, promoting the runners-up.
	if t-s[0].t > f.window {
		s[0], s[1] = s[1], s[2]
		s[2] = struct {
			v float64
			t uint64
		}{v, t}
		if t-s[0].t > f.window {
			s[0], s[1] = s[1], s[2]
		}
		return
	}
	// Keep the runners-up fresh: if the 2nd-best still dates from the
	// same sample as the best and a quarter window has passed, this
	// sample becomes the new 2nd/3rd best; likewise at a half window
	// for the 3rd. Without these the filter can only ever decay to the
	// most recent sample, never to an intermediate one.
	if s[1].t == s[0].t && t-s[1].t > f.window/4 {
		s[1] = struct {
			v float64
			t uint64
		}{v, t}
		s[2] = s[1]
	} else if s[2].t == s[1].t && t-s[2].t > f.window/2 {
		s[2] = struct {
			v float64
			t uint64
		}{v, t}
	}
}

func (f *maxFilter) get() float64 { return f.samples[0].v }
