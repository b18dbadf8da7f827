// Package gtfrc implements gTFRC — guaranteed TCP-Friendly Rate Control
// (Lochin, Dairaine, Jourjon, draft-lochin-ietf-tsvwg-gtfrc) — the
// QoS-aware congestion control inside the paper's QTPAF protocol.
//
// gTFRC addresses the classic DiffServ/AF failure: a TCP-like sender
// sharing an AF class backs off on drops of its *out-of-profile* (red)
// packets and never ramps back up to the bandwidth g it reserved, so the
// network-level guarantee is wasted (Seddigh et al.). gTFRC simply never
// lets the TFRC rate fall below the negotiated target:
//
//	X = max(g, X_TFRC)
//
// The g share of the traffic is within the token-bucket profile, so it is
// marked green and protected by the AF queue; only the excess above g is
// subject to TFRC's TCP-friendly probing. The flow therefore receives its
// reservation and competes fairly for the remaining best-effort capacity.
package gtfrc

import (
	"time"

	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

// Controller wraps a TFRC sender, clamping its rate to the negotiated
// target rate g. It exposes the same surface as *tfrc.Sender and is used
// interchangeably via the core.RateController interface — swapping this
// in is the entire difference between a best-effort QTP flow and QTPAF.
type Controller struct {
	*tfrc.Sender
	g float64 // target (guaranteed) rate, bytes/s
}

// New returns a gTFRC controller over sender with target rate g in
// bytes/second. g must be positive; a zero target would make the clamp a
// no-op, in which case plain TFRC should be used instead.
func New(sender *tfrc.Sender, g float64) *Controller {
	if g <= 0 {
		panic("gtfrc: target rate must be positive")
	}
	c := &Controller{Sender: sender, g: g}
	c.clamp()
	return c
}

// TargetRate returns the negotiated rate g in bytes/second.
func (c *Controller) TargetRate() float64 { return c.g }

// Start begins transmission and applies the guarantee immediately: a
// gTFRC flow is entitled to g from its first packet, with no slow start
// below the reservation.
func (c *Controller) Start(now time.Duration) {
	c.Sender.Start(now)
	c.clamp()
}

// SeedRTT installs a handshake RTT measurement, then re-applies the
// guarantee.
func (c *Controller) SeedRTT(now, sample time.Duration) {
	c.Sender.SeedRTT(now, sample)
	c.clamp()
}

// OnFeedback folds in a receiver report, then re-applies the guarantee:
// losses of out-of-profile packets may drive X_TFRC below g, but the
// emitted rate never drops under the reservation.
func (c *Controller) OnFeedback(now time.Duration, fb tfrc.FeedbackInfo) {
	c.Sender.OnFeedback(now, fb)
	c.clamp()
}

// OnAckVector folds in an acknowledgment vector, then re-applies the
// guarantee: on a sender that estimates loss itself (QTPlight's TFRC) the
// vector may carry the once-per-RTT report that lowers X_TFRC.
func (c *Controller) OnAckVector(now time.Duration, cum seqspace.Seq, ranges []seqspace.Range, rtt time.Duration) {
	c.Sender.OnAckVector(now, cum, ranges, rtt)
	c.clamp()
}

// OnNoFeedback handles the nofeedback timer, preserving the guarantee.
// Note that a total feedback outage still halves only the excess above
// g; if connectivity is truly gone the network-level contract is void
// anyway, and the AF class polices the flow to g at the edge.
func (c *Controller) OnNoFeedback(now time.Duration) {
	c.Sender.OnNoFeedback(now)
	c.clamp()
}

func (c *Controller) clamp() {
	if c.Sender.Rate() < c.g {
		c.Sender.SetRate(c.g)
	}
}
