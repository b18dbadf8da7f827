package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/seqspace"
)

// sender state machine: NewReno congestion control with SACK-driven
// retransmission.
type sender struct {
	f   *Flow
	sim *netsim.Sim

	// Sequence state (byte offsets).
	sndUna   int64 // oldest unacknowledged
	sndNxt   int64 // next new byte to send
	sacked   seqspace.IntervalSet
	gaps     []seqspace.Range // scratch for sacked.Gaps
	retxNext int64            // holes below this were already retransmitted this episode
	finSent  bool

	// Congestion control.
	cwnd        float64
	ssthresh    float64
	dupAcks     int
	inRecovery  bool  // SACK/NewReno fast recovery
	rtoRecovery bool  // slow-start recovery after a timeout
	recover     int64 // recovery point: holes below here are pulled

	// Lost-retransmission detection for the hole blocking cumack: if
	// the front hole's retransmission is not acknowledged within an RTO
	// of being sent, it is resent (a RACK-like rescue that avoids the
	// full timeout + go-back-N).
	frontRetxSeq int64
	frontRetxAt  time.Duration

	// RTT estimation (RFC 6298).
	srtt, rttvar time.Duration
	rto          time.Duration
	rttValid     bool
	backoff      int

	rtxTimer *netsim.Timer

	stats Stats
}

func newSender(f *Flow) *sender {
	return &sender{
		f:        f,
		sim:      f.sim,
		cwnd:     initialCwnd * mss,
		ssthresh: maxCwnd,
		rto:      time.Second,
	}
}

// Recv implements netsim.Handler: ACKs arrive here.
func (s *sender) Recv(p *netsim.Packet) {
	seg, ok := p.Payload.(*Segment)
	if !ok || !seg.IsAck {
		return
	}
	s.onAck(seg)
}

func (s *sender) onAck(a *Segment) {
	// RTT sample from the echoed timestamp (valid even for dupacks).
	if a.TSEcho > 0 {
		s.updateRTT(s.sim.Now() - a.TSEcho)
	}
	for _, b := range a.SACKs {
		s.sacked.Add(b)
	}
	// Note: the timer restarts only on cumulative-ack progress (the
	// RFC 6582 "impatient" variant). Restarting on SACK progress sounds
	// gentler but makes a lost retransmission unrecoverable: SACKs for
	// later data keep deferring the only mechanism that would resend it.

	switch {
	case a.Ack > s.sndUna:
		acked := a.Ack - s.sndUna
		s.stats.AckedBytes += acked
		s.sndUna = a.Ack
		s.sacked.RemoveBefore(sq(s.sndUna))
		s.dupAcks = 0
		s.backoff = 0

		restart := true
		if s.inRecovery {
			if a.Ack >= s.recover {
				// Full acknowledgment: leave recovery (RFC 6582).
				s.inRecovery = false
				s.cwnd = s.ssthresh
			} else {
				// Partial ack: deflate, then trySend pulls the next hole.
				// The RTO deliberately keeps running (the "impatient"
				// variant): if a retransmission was lost, a trickle of
				// partial acks must not defer the timeout forever.
				s.cwnd -= float64(acked)
				if s.cwnd < mss {
					s.cwnd = mss
				}
				s.cwnd += mss
				restart = false
			}
		} else if s.rtoRecovery {
			if a.Ack >= s.recover {
				s.rtoRecovery = false
			} else {
				restart = false
			}
			s.cwnd += float64(acked) // slow start back up
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(acked) // slow start
		} else {
			s.cwnd += mss * mss / s.cwnd // congestion avoidance
		}
		if s.cwnd > maxCwnd {
			s.cwnd = maxCwnd
		}
		if restart {
			s.restartTimer()
		}

	case a.Ack == s.sndUna && s.outstanding() > 0:
		s.dupAcks++
		if s.inRecovery {
			s.cwnd += mss // inflate per dupack
			// Rescue a lost retransmission of the front hole.
			if s.frontRetxSeq == s.sndUna && s.frontRetxAt > 0 &&
				s.sim.Now()-s.frontRetxAt > s.rto {
				s.retxNext = s.sndUna
				s.frontRetxAt = 0
			}
		} else if s.dupAcks >= 3 && !s.rtoRecovery {
			// Fast retransmit / fast recovery.
			s.inRecovery = true
			s.recover = s.sndNxt
			s.retxNext = s.sndUna
			s.ssthresh = s.flightSize() / 2
			if s.ssthresh < 2*mss {
				s.ssthresh = 2 * mss
			}
			s.cwnd = s.ssthresh + 3*mss
			s.stats.FastRecoveries++
			// RFC 6298 (5.1): the retransmission about to go out re-arms
			// the timer; without this the RTO races every recovery.
			s.restartTimer()
		}
	}
	s.trySend()
}

// lostThreshold returns the stream offset below which every unSACKed
// byte is considered lost, per the RFC 6675 dup-threshold rule: at
// least 3·MSS bytes above it have been SACKed. During RTO recovery the
// whole pre-timeout window is treated as lost.
func (s *sender) lostThreshold() int64 {
	if s.rtoRecovery {
		return s.recover
	}
	remaining := int64(3 * mss)
	ranges := s.sacked.Ranges()
	for i := len(ranges) - 1; i >= 0; i-- {
		ln := int64(ranges[i].Len())
		if ln >= remaining {
			return offset(ranges[i].Hi, s.sndUna) - remaining
		}
		remaining -= ln
	}
	return s.sndUna // not enough SACKed data to declare anything lost
}

// nextHole returns the next declared-lost, not-yet-retransmitted hole
// below the recovery point. Each hole goes out at most once per episode
// (retxNext is monotonic within one); a lost retransmission is
// recovered by the RTO.
func (s *sender) nextHole() (lo, hi int64, ok bool) {
	lo = max(s.sndUna, s.retxNext)
	lo = offset(s.sacked.FirstMissingAfter(sq(lo)), lo)
	limit := s.recover
	if limit > s.sndNxt {
		limit = s.sndNxt
	}
	if t := s.lostThreshold(); t < limit {
		limit = t
	}
	if lo >= limit {
		return 0, 0, false
	}
	hi = min(lo+mss, limit)
	// Do not re-send bytes the receiver already holds: lo starts a gap,
	// and the hole ends where that gap does.
	s.gaps = s.sacked.Gaps(s.gaps[:0], sq(lo), sq(hi))
	return lo, offset(s.gaps[0].Hi, lo), true
}

// flightSize estimates unacknowledged bytes in the network.
func (s *sender) flightSize() float64 {
	return float64(s.sndNxt - s.sndUna)
}

// outstanding returns bytes sent and not cumulatively acked.
func (s *sender) outstanding() int64 { return s.sndNxt - s.sndUna }

// pipe estimates bytes still in the network for recovery send gating,
// per RFC 6675: outstanding minus SACKed minus declared-lost, plus
// retransmissions re-injected below retxNext.
func (s *sender) pipe() float64 {
	t := s.lostThreshold()
	sackedAll := s.covered(s.sndUna, s.sndNxt)
	lostUnsacked := (t - s.sndUna) - s.covered(s.sndUna, t)
	if lostUnsacked < 0 {
		lostUnsacked = 0
	}
	reHi := s.retxNext
	if reHi > t {
		reHi = t
	}
	var reinjected int64
	if reHi > s.sndUna {
		reinjected = (reHi - s.sndUna) - s.covered(s.sndUna, reHi)
	}
	p := float64(s.outstanding() - sackedAll - lostUnsacked + reinjected)
	if p < 0 {
		p = 0
	}
	return p
}

// covered returns how many bytes of [lo, hi) are SACKed: the range's
// length minus its gaps.
func (s *sender) covered(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	n := hi - lo
	s.gaps = s.sacked.Gaps(s.gaps[:0], sq(lo), sq(hi))
	for _, g := range s.gaps {
		n -= int64(g.Len())
	}
	return n
}

// available returns how many new bytes the application still has.
func (s *sender) available() int64 {
	if s.f.cfg.Total == 0 {
		return 1 << 40 // unlimited
	}
	return s.f.cfg.Total - s.sndNxt
}

// trySend transmits as the window allows: during recovery it pulls
// unretransmitted holes first (gated by the pipe estimate), then new
// data.
func (s *sender) trySend() {
	recovering := s.inRecovery || s.rtoRecovery
	for {
		if recovering {
			if lo, hi, ok := s.nextHole(); ok {
				if s.pipe()+float64(hi-lo) > s.cwnd {
					break
				}
				s.retxNext = hi
				s.emit(lo, int(hi-lo), true)
				continue
			}
		}
		if s.available() <= 0 {
			break
		}
		gate := s.flightSize()
		if recovering {
			gate = s.pipe()
		}
		if gate+mss > s.cwnd {
			break
		}
		n := int64(mss)
		if avail := s.available(); n > avail {
			n = avail
		}
		fin := s.f.cfg.Total > 0 && s.sndNxt+n >= s.f.cfg.Total
		s.emitNew(s.sndNxt, int(n), fin)
	}
	s.armTimer()
}

func (s *sender) emitNew(seq int64, n int, fin bool) {
	s.sndNxt = seq + int64(n)
	s.finSent = s.finSent || fin
	s.stats.BytesSent += int64(n)
	s.emitSeg(seq, n, fin, false)
}

func (s *sender) emit(seq int64, n int, retx bool) {
	if retx {
		s.stats.Retransmits++
		s.stats.BytesRetrans += int64(n)
		if seq == s.sndUna {
			s.frontRetxSeq = seq
			s.frontRetxAt = s.sim.Now()
		}
	}
	s.emitSeg(seq, n, s.finSent && seq+int64(n) >= s.f.cfg.Total && s.f.cfg.Total > 0, retx)
}

func (s *sender) emitSeg(seq int64, n int, fin, retx bool) {
	s.stats.SegmentsSent++
	seg := &Segment{Seq: seq, Len: n, Fin: fin, TS: s.sim.Now()}
	s.f.cfg.Fwd.Recv(&netsim.Packet{
		Flow:    s.f.cfg.ID,
		Size:    n + HeaderBytes,
		Payload: seg,
	})
}

func (s *sender) updateRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if !s.rttValid {
		s.srtt = sample
		s.rttvar = sample / 2
		s.rttValid = true
	} else {
		// RFC 6298: alpha=1/8, beta=1/4.
		d := s.srtt - sample
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	// Floor the variance term at MinRTO/4 (as Linux does): on a stable
	// path rttvar collapses toward zero and a bare srtt+4·rttvar would
	// race every ACK, firing spurious timeouts.
	v := s.rttvar
	if floor := s.f.cfg.MinRTO / 4; v < floor {
		v = floor
	}
	s.rto = s.srtt + 4*v
	if s.rto < s.f.cfg.MinRTO {
		s.rto = s.f.cfg.MinRTO
	}
}

// armTimer starts the retransmission timer if data is outstanding and
// no timer is already running. Crucially it does NOT reset a running
// timer: duplicate ACKs must not postpone the RTO, or a lost
// retransmission can never time out while dupACKs keep arriving.
func (s *sender) armTimer() {
	if s.outstanding() == 0 {
		if s.rtxTimer != nil {
			s.rtxTimer.Stop()
			s.rtxTimer = nil
		}
		return
	}
	if s.rtxTimer != nil {
		return
	}
	rto := s.rto << s.backoff
	if rto > 60*time.Second {
		rto = 60 * time.Second
	}
	s.rtxTimer = s.sim.After(rto, s.onTimeout)
}

// restartTimer re-arms the RTO from now; called when sndUna advances.
func (s *sender) restartTimer() {
	if s.rtxTimer != nil {
		s.rtxTimer.Stop()
		s.rtxTimer = nil
	}
	s.armTimer()
}

func (s *sender) onTimeout() {
	if s.outstanding() == 0 {
		return
	}
	s.stats.Timeouts++
	s.ssthresh = s.flightSize() / 2
	if s.ssthresh < 2*mss {
		s.ssthresh = 2 * mss
	}
	s.rtxTimer = nil // we are the expired timer
	s.cwnd = mss
	s.dupAcks = 0
	s.inRecovery = false
	s.rtoRecovery = true
	s.recover = s.sndNxt
	s.retxNext = s.sndUna
	s.backoff++
	// trySend retransmits from sndUna under slow start, pulling the
	// remaining holes as the window reopens.
	s.trySend()
}
