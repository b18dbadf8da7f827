package core

import (
	"time"

	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

// Feedback is the digested content of one receiver report. Equation-based
// controllers (TFRC, gTFRC) consume every field; event-based controllers
// (BBR) typically use only the RTT sample and learn the rest from
// per-packet events.
type Feedback = tfrc.FeedbackInfo

// RateController is the congestion-control role of a composition: the
// micro-protocol that turns transmission events and receiver feedback
// into a pacing rate. It is deliberately transport-agnostic — the
// connection state machine feeds it three kinds of input and reads back
// one pacing contract:
//
//   - Per-packet events: OnSent for every first transmission, and
//     OnAckVector for every acknowledgment vector (cumulative ack plus
//     SACK ranges) the receiver sends back. A controller that samples
//     per-packet keeps its own ledger of what it sent and diffs each
//     vector against it. Sizes are wire bytes; sequence numbers are the
//     connection-level space stamped in frame headers (retransmissions
//     reuse their original number and are not re-reported). Classic TFRC
//     ignores these; QTPlight's TFRC estimates loss from them and digests
//     its own estimate once per RTT, so the connection never knows which
//     end estimates loss; BBR reads nothing else.
//
//   - Report events: OnFeedback for each digested receiver report,
//     OnNoFeedback when the feedback timer expires, SeedRTT for an RTT
//     measured during connection setup.
//
//   - The pacing contract: PacingRate is the allowed sending rate in
//     bytes/s, InterPacketInterval the gap it implies for a frame of a
//     given size, and CanSend an optional inflight cap — a
//     window-limited controller returns false while a full
//     bottleneck-delay product is outstanding, and the connection holds
//     fresh data until acknowledgments drain it. The connection's own
//     pacing schedule advances by the gap after each data frame: from the
//     previous send time while it is pacing-limited, so a late driver
//     sends the frames it slept through in a burst of at most 16, from
//     now otherwise. At two full frames per 100 µs or more it paces in
//     quanta: a due poll releases every frame due in the next 100 µs, at
//     most 64, back to back.
//
// Implementations: *tfrc.Sender, *gtfrc.Controller and
// *bbr.Controller. Experiments may plug in fixed-rate controllers for
// calibration.
type RateController interface {
	// Start begins transmission at time now.
	Start(now time.Duration)
	// SeedRTT installs an RTT sample measured during connection setup.
	SeedRTT(now, sample time.Duration)

	// OnSent records the first transmission of packet seq: bytes on the
	// wire at time now. Retransmissions are not reported.
	OnSent(now time.Duration, seq seqspace.Seq, bytes int)
	// OnAckVector folds one acknowledgment vector: every packet below
	// cum or inside one of ranges has been received. rtt is a fresh RTT
	// sample when the vector's frame carried a usable timestamp echo,
	// else 0.
	OnAckVector(now time.Duration, cum seqspace.Seq, ranges []seqspace.Range, rtt time.Duration)

	// OnFeedback folds a digested receiver report into the rate.
	OnFeedback(now time.Duration, fb Feedback)
	// OnNoFeedback signals expiry of the nofeedback timer.
	OnNoFeedback(now time.Duration)

	// PacingRate returns the allowed sending rate in bytes/second.
	PacingRate() float64
	// InterPacketInterval returns the pacing gap for a packet of size
	// bytes at the current pacing rate.
	InterPacketInterval(size int) time.Duration
	// CanSend reports whether a window-limited controller permits
	// another transmission right now. Purely rate-paced controllers
	// always return true.
	CanSend() bool

	// RTT returns the smoothed round-trip estimate (0 if unknown).
	RTT() time.Duration
	// NoFeedbackDeadline returns when OnNoFeedback is next due.
	NoFeedbackDeadline() time.Duration
}
