// Package core is the composition framework of the versatile transport:
// it defines the micro-protocol roles a QTP connection is assembled from
// (rate control, reliability, feedback mode), the Profile that bundles a
// concrete choice of each, and the capability negotiation that lets two
// endpoints agree on a composition at connection setup.
//
// The paper's two instances are just profiles:
//
//   - QTPAF    = gTFRC rate control + full reliability + receiver-side
//     loss feedback, for QoS-enabled (DiffServ/AF) networks.
//   - QTPlight = TFRC rate control + sender-side loss estimation
//     (bare SACK feedback), for resource-limited receivers.
//
// Any other point in the feature lattice is equally constructible — e.g.
// partially reliable QTPlight for live video, or unreliable gTFRC for
// QoS media push. internal/qtp instantiates connections from a Profile.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/tfrc"
)

// Profile is a concrete composition of micro-protocols plus their
// parameters — everything two endpoints must agree on.
type Profile struct {
	// Reliability selects the reliability micro-protocol.
	Reliability packet.ReliabilityMode
	// Deadline bounds retransmission under partial reliability.
	Deadline time.Duration
	// Feedback selects where TFRC loss estimation runs.
	Feedback packet.FeedbackMode
	// TargetRate g in bytes/s enables gTFRC when positive.
	TargetRate float64
	// Congestion selects the congestion-control micro-protocol. The zero
	// value is the TFRC family (plain TFRC, or gTFRC when TargetRate is
	// positive) and is never carried on the wire; CongestionBBR asks for
	// the bandwidth×RTT estimator. A QoS reservation needs the gTFRC
	// clamp, so TargetRate > 0 forces the TFRC family (Normalize drops
	// a BBR request). BBR reads ack vectors only, never X_recv or p, so
	// it forces sender-side feedback (Normalize sets it).
	Congestion packet.CongestionMode
	// MSS is the maximum data payload per frame.
	MSS int
	// WALIDepth overrides the loss-history depth (0 = RFC default).
	WALIDepth int
	// SACKBlockBudget caps the SACK blocks carried per acknowledgment
	// frame (0 = the wire maximum). Ablation A3 studies this trade-off.
	SACKBlockBudget int
	// MaxStreams is the stream-multiplexing capability: the greatest
	// number of concurrent streams (each with its own delivery mode —
	// reliable-ordered, reliable-unordered, or expiring) the connection
	// may carry. 0 or 1 leaves the connection with stream 0 alone and
	// its data frames unprefixed; 2+ activates the stream prefix once
	// both sides agree. Requires a reliability micro-protocol
	// (Reliability != None): stream scheduling is built on the
	// per-stream scoreboards.
	MaxStreams int
}

// DefaultMSS is the default data payload size, sized so frame+header
// fits a typical 1500-byte MTU path with room to spare.
const DefaultMSS = 1400

// DefaultPartialDeadline is the retransmission bound applied when
// negotiation degrades full reliability to partial and the proposal
// carried no deadline of its own.
const DefaultPartialDeadline = 500 * time.Millisecond

// Predefined compositions.

// QTPAF returns the paper's QoS-aware reliable profile with the given
// negotiated target rate in bytes/second.
func QTPAF(targetRate float64) Profile {
	return Profile{
		Reliability: packet.ReliabilityFull,
		Feedback:    packet.FeedbackReceiverLoss,
		TargetRate:  targetRate,
		MSS:         DefaultMSS,
	}
}

// QTPLight returns the paper's light-receiver profile: sender-side loss
// estimation over bare SACK feedback, no reliability (media streaming).
func QTPLight() Profile {
	return Profile{
		Reliability: packet.ReliabilityNone,
		Feedback:    packet.FeedbackSenderLoss,
		MSS:         DefaultMSS,
	}
}

// QTPLightReliable returns QTPlight with reliability layered on — the
// "efficient selective retransmission of lost data" the paper notes
// comes for free once the sender tracks SACKs.
func QTPLightReliable(deadline time.Duration) Profile {
	p := QTPLight()
	if deadline > 0 {
		p.Reliability = packet.ReliabilityPartial
		p.Deadline = deadline
	} else {
		p.Reliability = packet.ReliabilityFull
	}
	return p
}

// ClassicTFRC returns an RFC 3448 baseline composition: receiver-side
// loss estimation, no reliability, best effort.
func ClassicTFRC() Profile {
	return Profile{
		Reliability: packet.ReliabilityNone,
		Feedback:    packet.FeedbackReceiverLoss,
		MSS:         DefaultMSS,
	}
}

// ParseProfile returns the predefined composition a tool's -profile flag
// names: qtpaf (at targetRate, bytes/s), qtplight, qtplight-rel (QTPlight
// with full reliability) or classic.
func ParseProfile(name string, targetRate float64) (Profile, error) {
	switch name {
	case "qtpaf":
		return QTPAF(targetRate), nil
	case "qtplight":
		return QTPLight(), nil
	case "qtplight-rel":
		return QTPLightReliable(0), nil
	case "classic":
		return ClassicTFRC(), nil
	}
	return Profile{}, fmt.Errorf("core: unknown profile %q", name)
}

// Normalize fills zero-valued fields with defaults and returns the
// result.
func (p Profile) Normalize() Profile {
	if p.MSS == 0 {
		p.MSS = DefaultMSS
	}
	if p.WALIDepth == 0 {
		p.WALIDepth = tfrc.DefaultWALIDepth
	}
	if p.SACKBlockBudget <= 0 || p.SACKBlockBudget > packet.MaxSACKBlocks {
		p.SACKBlockBudget = packet.MaxSACKBlocks
	}
	if p.MaxStreams > packet.MaxStreams {
		p.MaxStreams = packet.MaxStreams
	}
	if p.MaxStreams < 2 || p.Reliability == packet.ReliabilityNone {
		// Prefixed streams need per-stream scoreboards; an unreliable
		// profile (or a trivial stream count) stays unprefixed.
		p.MaxStreams = 0
	}
	if p.TargetRate > 0 {
		// A QoS reservation is enforced by the gTFRC clamp; the guarantee
		// has no meaning under an estimator that ignores the equation.
		p.Congestion = packet.CongestionTFRC
	}
	if p.Congestion == packet.CongestionBBR {
		// BBR's samples come from per-packet acknowledgments: it is fed
		// bare ack vectors, and a receiver report would be computed for
		// nobody.
		p.Feedback = packet.FeedbackSenderLoss
	}
	return p
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	if p.MSS <= 0 || p.MSS > 65000 {
		return fmt.Errorf("core: invalid MSS %d", p.MSS)
	}
	if p.Reliability == packet.ReliabilityPartial && p.Deadline <= 0 {
		return errors.New("core: partial reliability requires a deadline")
	}
	if p.Reliability != packet.ReliabilityPartial && p.Deadline != 0 {
		return errors.New("core: deadline only valid with partial reliability")
	}
	if p.TargetRate < 0 {
		return errors.New("core: negative target rate")
	}
	if p.MaxStreams < 0 || p.MaxStreams > packet.MaxStreams {
		return fmt.Errorf("core: MaxStreams %d out of range [0,%d]", p.MaxStreams, packet.MaxStreams)
	}
	if p.MaxStreams >= 2 && p.Reliability == packet.ReliabilityNone {
		return errors.New("core: multi-stream requires a reliability micro-protocol")
	}
	if p.Congestion > packet.CongestionBBR {
		return fmt.Errorf("core: unknown congestion mode %d", p.Congestion)
	}
	if p.Congestion == packet.CongestionBBR && p.TargetRate > 0 {
		return errors.New("core: a QoS target rate requires the gTFRC clamp (TFRC congestion)")
	}
	return nil
}

// Handshake encodes the profile as wire-format handshake options.
func (p Profile) Handshake() packet.Handshake {
	return packet.Handshake{
		Reliability:      p.Reliability,
		ReliabilityParam: uint32(p.Deadline / time.Millisecond),
		FeedbackMode:     p.Feedback,
		TargetRate:       uint64(p.TargetRate),
		MSS:              uint16(p.MSS),
		MaxStreams:       uint16(p.MaxStreams),
		Congestion:       p.Congestion,
	}
}

// ProfileFromHandshake decodes a wire handshake into a Profile.
func ProfileFromHandshake(h packet.Handshake) Profile {
	return Profile{
		Reliability: h.Reliability,
		Deadline:    time.Duration(h.ReliabilityParam) * time.Millisecond,
		Feedback:    h.FeedbackMode,
		TargetRate:  float64(h.TargetRate),
		MSS:         int(h.MSS),
		MaxStreams:  int(h.MaxStreams),
		Congestion:  h.Congestion,
	}.Normalize()
}

// Constraints bounds what a responder is willing to grant. The zero
// value accepts anything except a QoS reservation (MaxTargetRate 0
// refuses gTFRC, as a best-effort server should).
type Constraints struct {
	// MaxTargetRate caps the QoS reservation in bytes/s (0 = refuse QoS).
	MaxTargetRate float64
	// AllowSenderLoss permits QTPlight-style feedback. When false the
	// responder insists on classic receiver-side estimation.
	AllowSenderLoss bool
	// MaxReliability caps the reliability service level.
	MaxReliability packet.ReliabilityMode
	// MaxMSS caps the segment size (0 = DefaultMSS).
	MaxMSS int
	// MaxStreams caps how many concurrent streams an inbound connection
	// may multiplex (0 = refuse the capability: peers get stream 0
	// alone, unprefixed).
	MaxStreams int
	// AllowBBR permits the bandwidth×RTT congestion controller. When
	// false a CongestionBBR proposal is negotiated down to the TFRC
	// family (the Accept simply omits the congestion TLV), which is also
	// what a build that predates the TLV would do.
	AllowBBR bool
}

// Permissive returns constraints that accept any proposal up to the
// given QoS budget.
func Permissive(maxTargetRate float64) Constraints {
	return Constraints{
		MaxTargetRate:   maxTargetRate,
		AllowSenderLoss: true,
		MaxReliability:  packet.ReliabilityFull,
		MaxMSS:          DefaultMSS,
		MaxStreams:      packet.MaxStreams,
		AllowBBR:        true,
	}
}

// Negotiate intersects a client proposal with the responder's
// constraints, returning the profile both sides will instantiate. The
// semantics are "highest service not exceeding the proposal or the
// constraints": reliability degrades Full→Partial→None, QoS rate is
// capped, and feedback mode falls back to classic when sender-side
// estimation is not allowed.
func Negotiate(c Constraints, proposal Profile) Profile {
	granted := proposal.Normalize()
	if granted.Reliability > c.MaxReliability {
		granted.Reliability = c.MaxReliability
	}
	if granted.Reliability != packet.ReliabilityPartial {
		granted.Deadline = 0
	} else if granted.Deadline == 0 {
		// Full degraded to partial with no proposed bound: apply the
		// default so the result is a usable composition.
		granted.Deadline = DefaultPartialDeadline
	}
	if granted.TargetRate > c.MaxTargetRate {
		granted.TargetRate = c.MaxTargetRate
	}
	if granted.Feedback == packet.FeedbackSenderLoss && !c.AllowSenderLoss {
		granted.Feedback = packet.FeedbackReceiverLoss
	}
	maxMSS := c.MaxMSS
	if maxMSS == 0 {
		maxMSS = DefaultMSS
	}
	if granted.MSS > maxMSS {
		granted.MSS = maxMSS
	}
	if granted.MaxStreams > c.MaxStreams {
		granted.MaxStreams = c.MaxStreams
	}
	if granted.Congestion == packet.CongestionBBR && (!c.AllowBBR || !c.AllowSenderLoss) {
		// Refused capability or refused ack-vector feedback (all BBR
		// reads): fall back to the TFRC family. The Accept omits the TLV,
		// exactly what a pre-TLV peer would send.
		granted.Congestion = packet.CongestionTFRC
	}
	// Normalize's rules hold over what the constraints cut: degraded
	// reliability or a trivial count falls back to the unprefixed stream
	// 0, and a granted QoS reservation keeps the gTFRC clamp.
	return granted.Normalize()
}

// String summarises the composition, e.g.
// "reliability=full feedback=receiver-loss cc=tfrc g=1.25e+06B/s mss=1400".
func (p Profile) String() string {
	return fmt.Sprintf("reliability=%v feedback=%v cc=%v g=%gB/s mss=%d",
		p.Reliability, p.Feedback, p.Congestion, p.TargetRate, p.MSS)
}
