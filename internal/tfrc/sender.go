package tfrc

import (
	"math"
	"time"

	"repro/internal/seqspace"
)

// FeedbackInfo is the digested content of one receiver report, as handed
// to the sender rate machine. In the classic composition the receiver
// computed P itself; in QTPlight the sender-side estimator produced both
// numbers from a bare SACK. Either way the rate machine is identical —
// that interchangeability is the paper's composition claim.
type FeedbackInfo struct {
	XRecv     float64       // receiver rate over the last window, bytes/s
	P         float64       // loss event rate
	RTTSample time.Duration // fresh RTT measurement, 0 if none
}

// SenderConfig configures a TFRC sender.
type SenderConfig struct {
	// SegmentSize s in bytes. Required.
	SegmentSize int
	// Estimator, when set, makes this a QTPlight sender: the rate machine
	// is fed by the sender-side loss estimator, from the per-packet
	// events, instead of by receiver reports.
	Estimator *SenderEstimator
}

// Sender is the RFC 3448 §4 sender: it turns receiver reports into an
// allowed transmit rate X, handles slow start, the nofeedback timer and
// rate limits. It does not own packets or timers; the endpoint driver
// asks for Rate / interpacket interval and schedules the nofeedback
// timer at NoFeedbackDeadline.
type Sender struct {
	cfg SenderConfig

	rtt      time.Duration
	rttValid bool

	x        float64       // allowed rate, bytes/s
	xRecv    float64       // most recent receive rate report
	p        float64       // most recent loss event rate
	tld      time.Duration // time last doubled (slow start pacing)
	deadline time.Duration // nofeedback deadline (absolute)

	// xRecvSet holds the most recent receive-rate reports; the
	// X <= 2·max(set) limit uses the maximum (RFC 5348 §4.3) so that a
	// single burst-emptied report cannot ratchet the rate down to a
	// level it can only escape one doubling per round trip.
	xRecvSet [3]float64

	lastReport time.Duration // last estimator report (QTPlight only)
	started    bool
}

// NewSender returns a sender in its initial state: one segment per
// second until the first RTT sample arrives (RFC 3448 §4.2).
func NewSender(cfg SenderConfig) *Sender {
	if cfg.SegmentSize <= 0 {
		panic("tfrc: SegmentSize required")
	}
	return &Sender{
		cfg: cfg,
		x:   float64(cfg.SegmentSize), // 1 segment/second
	}
}

// Start records the transmission start; the first nofeedback deadline is
// 2 seconds out (RFC 3448 §4.2).
func (s *Sender) Start(now time.Duration) {
	s.started = true
	s.tld = now
	s.deadline = now + 2*time.Second
}

// SeedRTT installs an RTT measured during connection setup (e.g. the
// handshake exchange) and sets the RFC 3390-style initial rate of up to
// four segments per RTT.
func (s *Sender) SeedRTT(now time.Duration, sample time.Duration) {
	if sample <= 0 {
		return
	}
	s.rtt = sample
	s.rttValid = true
	iw := math.Min(4*float64(s.cfg.SegmentSize),
		math.Max(2*float64(s.cfg.SegmentSize), 4380))
	s.x = math.Max(s.x, iw/sample.Seconds())
	s.deadline = now + s.noFeedbackInterval()
}

// rttWeight is q in R = q·R + (1−q)·sample (RFC 3448 §4.3).
const rttWeight = 0.9

// minRate floors the sending rate, in bytes/s: one segment per TMBI, the
// RFC minimum.
func (s *Sender) minRate() float64 { return float64(s.cfg.SegmentSize) / TMBI.Seconds() }

// OnFeedback folds a receiver report into the rate (RFC 3448 §4.3).
func (s *Sender) OnFeedback(now time.Duration, fb FeedbackInfo) {
	if fb.RTTSample > 0 {
		if !s.rttValid {
			s.rtt = fb.RTTSample
			s.rttValid = true
			if s.tld == 0 {
				s.tld = now
			}
		} else {
			q := rttWeight
			s.rtt = time.Duration(q*float64(s.rtt) + (1-q)*float64(fb.RTTSample))
		}
	}
	s.xRecv = fb.XRecv
	s.p = fb.P
	s.xRecvSet[0], s.xRecvSet[1], s.xRecvSet[2] =
		s.xRecvSet[1], s.xRecvSet[2], fb.XRecv

	seg := float64(s.cfg.SegmentSize)
	if s.p > 0 {
		xCalc := Throughput(s.cfg.SegmentSize, s.rtt, s.p)
		cap2 := 2 * math.Max(s.xRecvSet[0], math.Max(s.xRecvSet[1], s.xRecvSet[2]))
		s.x = math.Max(math.Min(xCalc, cap2), s.minRate())
	} else if s.rttValid && now-s.tld >= s.rtt {
		// Slow start: double at most once per RTT, limited to twice the
		// rate the receiver reports actually arriving.
		s.x = math.Max(math.Min(2*s.x, 2*fb.XRecv), seg/s.rtt.Seconds())
		s.tld = now
	}
	s.deadline = now + s.noFeedbackInterval()
}

// OnNoFeedback implements the §4.4 nofeedback-timer expiry: halve the
// sending rate (via the X_recv limit) and re-arm.
func (s *Sender) OnNoFeedback(now time.Duration) {
	if s.p > 0 && s.rttValid {
		xCalc := Throughput(s.cfg.SegmentSize, s.rtt, s.p)
		// Halving the receive-rate history halves the cap.
		for i := range s.xRecvSet {
			s.xRecvSet[i] = math.Max(s.xRecvSet[i]/2, s.minRate()/2)
		}
		s.xRecv = math.Max(s.xRecv/2, s.minRate()/2)
		cap2 := 2 * math.Max(s.xRecvSet[0], math.Max(s.xRecvSet[1], s.xRecvSet[2]))
		s.x = math.Max(math.Min(xCalc, cap2), s.minRate())
	} else {
		s.x = math.Max(s.x/2, s.minRate())
	}
	s.deadline = now + s.noFeedbackInterval()
}

// noFeedbackInterval is max(4R, 2s/X) (RFC 3448 §4.3), and at least two
// report intervals at the receiver's feedbackFloor: below a 500 µs RTT,
// 4R would expire between two reports and halve X for nothing.
func (s *Sender) noFeedbackInterval() time.Duration {
	if !s.rttValid {
		return 2 * time.Second
	}
	tx := time.Duration(2 * float64(s.cfg.SegmentSize) / s.x * float64(time.Second))
	return max(4*s.rtt, tx, 2*feedbackFloor)
}

// Rate returns the allowed sending rate in bytes/second.
func (s *Sender) Rate() float64 { return s.x }

// PacingRate is Rate under the name core.RateController reads it by.
func (s *Sender) PacingRate() float64 { return s.x }

// CanSend always permits transmission: TFRC is rate-paced, not
// window-limited.
func (s *Sender) CanSend() bool { return true }

// OnSent is core.RateController's per-packet send event. Classic TFRC
// ignores it; a QTPlight sender records the transmission in its
// estimator.
func (s *Sender) OnSent(now time.Duration, seq seqspace.Seq, size int) {
	if e := s.cfg.Estimator; e != nil {
		e.OnSent(now, seq, size)
	}
}

// OnAckVector is core.RateController's per-packet ack event. Classic
// TFRC ignores it: the equation needs only the receiver's digest, which
// arrives through OnFeedback. A QTPlight sender folds the vector into its
// estimator and digests the estimate itself once per RTT, as the
// receiver would report it. sample is the vector's fresh RTT sample, 0
// if none.
func (s *Sender) OnAckVector(now time.Duration, cum seqspace.Seq, ranges []seqspace.Range, sample time.Duration) {
	e := s.cfg.Estimator
	if e == nil {
		return
	}
	rtt := s.RTT()
	if rtt == 0 {
		rtt = sample
	}
	e.OnAckVector(now, cum, ranges, rtt)
	// Never report an empty window: duplicate SACKs carry no new bytes and
	// would report X_recv = 0, freezing the rate at the floor.
	cadence := rtt
	if cadence <= 0 {
		cadence = 10 * time.Millisecond
	}
	if e.PendingBytes() > 0 && (s.lastReport == 0 || now-s.lastReport >= cadence) {
		xRecv, p := e.MakeReport(now)
		s.OnFeedback(now, FeedbackInfo{XRecv: xRecv, P: p, RTTSample: sample})
		s.lastReport = now
	}
}

// Estimator returns the sender-side loss estimator, nil on a classic
// sender.
func (s *Sender) Estimator() *SenderEstimator { return s.cfg.Estimator }

// SetRate overrides the allowed rate; used by rate controllers layered
// on top of TFRC (gTFRC clamps X to the negotiated minimum).
func (s *Sender) SetRate(x float64) {
	s.x = math.Max(x, s.minRate())
}

// InterPacketInterval returns t_ipi = s/X for the given packet size.
func (s *Sender) InterPacketInterval(size int) time.Duration {
	return time.Duration(float64(size) / s.x * float64(time.Second))
}

// RTT returns the smoothed round-trip estimate (0 until measured).
func (s *Sender) RTT() time.Duration {
	if !s.rttValid {
		return 0
	}
	return s.rtt
}

// P returns the most recent loss event rate the rate is based on.
func (s *Sender) P() float64 { return s.p }

// XRecv returns the most recent receive-rate report.
func (s *Sender) XRecv() float64 { return s.xRecv }

// NoFeedbackDeadline returns the absolute time at which OnNoFeedback
// should be invoked unless feedback arrives first.
func (s *Sender) NoFeedbackDeadline() time.Duration { return s.deadline }

// InSlowStart reports whether no loss has been reported yet.
func (s *Sender) InSlowStart() bool { return s.p == 0 }
