package qtp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// HandleFrame processes one inbound datagram. Decode errors are counted
// and returned; state-machine violations return an error but leave the
// connection usable (a robust endpoint ignores stray frames).
func (c *Conn) HandleFrame(now time.Duration, frame []byte) error {
	if c.state == StateClosed {
		return ErrClosed
	}
	var hdr packet.Header
	payload, err := hdr.Parse(frame)
	if err != nil {
		c.stats.DecodeErrors++
		return err
	}
	if hdr.ConnID != c.localID {
		// A Connect reaches the responder before the initiator can know
		// our local ID, stamped with the initiator's own ID instead; the
		// driver has already routed it to us by peer address. The same
		// holds for 0-RTT data: sealed and stamped before the Accept
		// delivers our ID, it carries the initiator's proposed ID like
		// the Connect it rides with — acceptable only because the AEAD
		// already authenticated it (an encrypted connection's driver
		// never feeds HandleFrame a plaintext data frame).
		fromPeer := hdr.Type == packet.TypeConnect ||
			(c.cr.enabled && hdr.ConnID == c.remoteID)
		if c.cfg.Initiator || !fromPeer {
			c.stats.DecodeErrors++
			return fmt.Errorf("qtp: conn id %d, want %d", hdr.ConnID, c.localID)
		}
	}
	c.stats.FramesReceived++
	// Record the peer timestamp for echoing.
	c.lastPeerTS = hdr.Timestamp
	c.lastPeerTSAt = now
	c.havePeerTS = true

	switch hdr.Type {
	case packet.TypeConnect:
		return c.onConnect(now, &hdr, payload)
	case packet.TypeAccept:
		return c.onAccept(now, &hdr, payload)
	case packet.TypeConfirm:
		return c.onConfirm(now, &hdr)
	case packet.TypeData:
		return c.onData(now, &hdr, payload)
	case packet.TypeFeedback, packet.TypeSACK:
		return c.onAck(now, &hdr, payload)
	case packet.TypeClose:
		return c.onClose(now)
	case packet.TypeCloseAck:
		return c.onCloseAck()
	case packet.TypeStreamReset:
		return c.onStreamReset(now, payload)
	case packet.TypeRetry:
		return c.onRetry(now, &hdr, payload)
	}
	return fmt.Errorf("qtp: unhandled frame type %v", hdr.Type)
}

func (c *Conn) onConnect(now time.Duration, hdr *packet.Header, payload []byte) error {
	if c.cfg.Initiator {
		return ErrBadState
	}
	var hs packet.Handshake
	if err := hs.Parse(payload); err != nil {
		return err
	}
	// Address the initiator by the ID it asked for, falling back to the
	// header stamp for peers that predate the connection-ID TLV.
	if hs.ConnID != 0 {
		c.remoteID = hs.ConnID
	} else if c.remoteID == 0 {
		c.remoteID = hdr.ConnID
	}
	if c.state == StateIdle {
		if c.cfg.Encrypt && len(hs.KeyShare) == 0 {
			// A plaintext peer (or a stripped key share). Stay Idle and
			// ignore it — a later well-formed Connect can still establish.
			return ErrCryptoRequired
		}
		proposal := core.ProfileFromHandshake(hs)
		c.profile = core.Negotiate(c.cfg.Constraints, proposal)
		if c.cfg.Encrypt {
			if err := c.acceptCrypto(&hs, payload); err != nil {
				return err
			}
		} else {
			ahs := c.handshakeBase()
			c.acceptPayload, _ = ahs.AppendTo(nil)
		}
		c.buildMachines(now)
		c.state = StateEstablished
	}
	// (Re)send the Accept — handles a lost Accept too. buildControl
	// replays the payload pinned at the first Connect.
	c.ctrlPending = packet.TypeAccept
	c.ctrlDue = now
	return nil
}

func (c *Conn) onAccept(now time.Duration, hdr *packet.Header, payload []byte) error {
	if !c.cfg.Initiator {
		return ErrBadState
	}
	var hs packet.Handshake
	if err := hs.Parse(payload); err != nil {
		return err
	}
	// Adopt the responder's local ID for everything we send from now on.
	if hs.ConnID != 0 {
		c.remoteID = hs.ConnID
	}
	if c.state == StateConnecting {
		if c.cr.enabled {
			// Terminal on failure: a missing key share here means a
			// downgrade attempt, and a bad one means a forged or corrupted
			// Accept — either way 1-RTT keys cannot exist, so the
			// connection dies rather than continue in plaintext.
			if err := c.completeCrypto(&hs, payload); err != nil {
				c.state = StateClosed
				c.ctrlPending = 0
				return err
			}
		}
		negotiated := core.ProfileFromHandshake(hs)
		if c.cr.early {
			// The data machines have been running under the proposed
			// profile since Start; a server that negotiated something else
			// invalidates them (and the ticket's profile pin should have
			// prevented EarlyAccept). Abort so the dialer retries cold.
			if !bytes.Equal(profileBytes(negotiated), profileBytes(c.profile)) {
				c.state = StateClosed
				c.ctrlPending = 0
				return ErrResumeProfile
			}
			c.state = StateEstablished
			if sample := rttSample(now, hdr.TSEcho, 0); sample > 0 {
				c.rc.SeedRTT(now, sample)
			}
		} else {
			c.profile = negotiated
			c.buildMachines(now)
			c.state = StateEstablished
			c.rc.Start(now)
			if sample := rttSample(now, hdr.TSEcho, 0); sample > 0 {
				c.rc.SeedRTT(now, sample)
			}
			c.nextSendAt = now
			c.started = true
		}
	}
	// Confirm (again, if the previous one was lost).
	c.ctrlPending = packet.TypeConfirm
	c.ctrlDue = now
	return nil
}

// onRetry handles the server's stateless address-validation challenge:
// adopt the token and reissue the Connect (honoring a load-shedding
// Retry-after hint). The retry does NOT reset ctrlTries — the challenge
// round-trip spends one of the handshake's bounded attempts, so a
// server shedding forever cannot pin the client in Connecting.
func (c *Conn) onRetry(now time.Duration, hdr *packet.Header, payload []byte) error {
	if !c.cfg.Initiator || c.state != StateConnecting {
		return ErrBadState
	}
	var r packet.Retry
	if err := r.Parse(payload); err != nil {
		c.stats.DecodeErrors++
		return err
	}
	c.token = append(c.token[:0], r.Token...)
	c.stats.RetriesReceived++
	// The token changes the Connect payload and, encrypted, the
	// transcript and any 0-RTT keys bound to its hash.
	c.pinConnect()
	c.ctrlPending = packet.TypeConnect
	delay := time.Duration(r.RetryAfterMS) * time.Millisecond
	if delay > 0 {
		// Jitter the hint like a backoff interval so a shedding server
		// doesn't get the whole rejected cohort back in one burst.
		delay += time.Duration(float64(delay) * ctrlJitter(c.localID, uint32(c.ctrlTries)))
	}
	c.ctrlDue = now + delay
	return nil
}

func (c *Conn) onConfirm(now time.Duration, hdr *packet.Header) error {
	if c.cfg.Initiator {
		return ErrBadState
	}
	return nil
}

// errFraming rejects a data frame whose stream prefix does not match
// the negotiated framing: an unexpected prefix would be misread as
// application bytes, a missing one as a prefix.
var errFraming = errors.New("qtp: data frame stream prefix does not match the negotiated framing")

// onData is the data path: decode which stream the frame belongs to,
// record it at the connection level and in the stream's receiver, and
// leave whatever became deliverable on the stream's ready queue.
func (c *Conn) onData(now time.Duration, hdr *packet.Header, payload []byte) error {
	if c.isSender() || c.state == StateIdle {
		return ErrBadState
	}
	// Unprefixed, the frame is stream 0 and the header's sequence number
	// is the stream's.
	si := packet.StreamInfo{Seq: hdr.Seq}
	data, rs := payload, c.recvByID[0]
	switch prefixed := hdr.Flags&packet.FlagStream != 0; {
	case prefixed != c.multi:
		c.stats.DecodeErrors++
		return errFraming
	case prefixed:
		var err error
		if data, err = si.Parse(payload, hdr.Seq); err != nil {
			c.stats.DecodeErrors++
			return err
		}
		if rs, err = c.recvStreamFor(si.ID, si.Mode, si.DeadlineMS); err != nil {
			return err
		}
		c.received.Pass(si.AckFloor)
	case rs == nil:
		rs = c.openRecvStream0()
	}
	if rs != nil && rs.refuses(si.Seq, len(data)) {
		// The reader is behind. Refused before c.received, the stream's
		// receiver or the TFRC receiver see it, the frame is as good as lost:
		// the sender's scoreboard still owns it and the rate controller slows.
		c.stats.RefusedFrames++
		return ErrDeliveryFull
	}
	c.received.Add(hdr.Seq)
	if rs == nil {
		// Straggler for a retired stream (a late retransmission that
		// crossed our final ack): acknowledged at the connection level
		// so the sender resolves it, but the stream is never resurrected
		// — its data was all delivered or skipped already.
		st := c.retired[si.ID]
		st.DuplicateSegs++
		c.retired[si.ID] = st
		return nil
	}
	if !rs.OnData(now, si.Seq, data, hdr.Flags&packet.FlagFIN != 0) {
		// A duplicate means the sender may have missed our final ack;
		// put the stream's cum back on the tail until it lands.
		rs.finalAcked = false
	}
	c.liftFloor(rs)

	if c.tfrcRecv != nil {
		if hdr.Flags&packet.FlagRetransmit != 0 {
			// Retransmissions count toward X_recv and keep feedback
			// flowing, but are invisible to loss detection.
			c.tfrcRecv.OnRetransmit(now, len(payload)+packet.HeaderLen)
		} else {
			rtt := time.Duration(hdr.RTTUS) * time.Microsecond
			if c.tfrcRecv.OnData(now, hdr.Seq, len(payload)+packet.HeaderLen, rtt) {
				c.ackNow = true // first packet or a new loss event
			}
		}
		if c.nextFBAt == 0 {
			c.nextFBAt = now + c.tfrcRecv.FeedbackInterval()
		}
	} else if c.profile.Feedback == packet.FeedbackSenderLoss {
		// QTPlight acknowledges every data frame.
		c.ackNow = true
	}
	return nil
}

// onAck reads an acknowledgment: a receiver report (TypeFeedback) or a
// bare ack vector (TypeSACK). A report needs a sender that takes the
// receiver's word for X_recv and p: the TFRC family over receiver-side
// feedback. A bare vector needs a sender that reads ack vectors:
// QTPlight's TFRC, which estimates X_recv and p from them, or BBR, which
// reads nothing else. Anything else is refused: a report taken by a
// QTPlight or BBR sender would hand a selfish receiver the rate.
func (c *Conn) onAck(now time.Duration, hdr *packet.Header, payload []byte) error {
	report := hdr.Type == packet.TypeFeedback
	senderLoss := c.profile.Feedback == packet.FeedbackSenderLoss
	if c.rc == nil || (report && senderLoss) || (!report && !senderLoss) {
		return ErrBadState
	}
	a := &c.ackBuf
	var err error
	if report {
		err = a.Parse(payload)
	} else {
		err = a.SACK.Parse(payload)
	}
	if err != nil {
		return err
	}
	sample := rttSample(now, hdr.TSEcho, a.ElapsedUS)
	if report {
		c.rc.OnFeedback(now, core.Feedback{
			XRecv: float64(a.XRecv), P: a.LossRate, RTTSample: sample,
		})
	}
	c.rc.OnAckVector(now, a.CumAck, a.Blocks, sample)
	c.onStreamAcks(now, a.CumAck, a.Blocks, a.Streams)
	return nil
}

func (c *Conn) onClose(now time.Duration) error {
	if c.state != StateClosed {
		c.forwardFinStream0(now)
		c.ctrlPending = packet.TypeCloseAck
		c.ctrlDue = now
		c.state = StateClosing
	}
	return nil
}

// forwardFinStream0 is the unprefixed connection's forward FIN. Its
// sender closes once every segment is acknowledged, abandoned or (on an
// unreliable stream 0) sent, and no StreamReset travels without the
// streams capability, so the Close itself says where a stream 0 that
// skips holes ends: at the FIN the receiver saw, or else at its highest
// buffered sequence. ForceFin then skips the holes that will never fill
// and delivers what waited behind them — data this receiver already
// acknowledged — as onStreamReset does per stream. A fully reliable
// stream 0 never skips, and has nothing behind a hole at its Close.
func (c *Conn) forwardFinStream0(now time.Duration) {
	rs := c.recvByID[0]
	if rs == nil || !rs.connSeq || rs.SkipAfter == 0 {
		return
	}
	// Nothing past a FIN arrives, so the highest buffered sequence is
	// the FIN whenever the FIN is buffered.
	if held := rs.Blocks(nil, math.MaxInt); len(held) > 0 {
		rs.ForceFin(now, held[len(held)-1].Hi.Prev())
	}
}

func (c *Conn) onCloseAck() error {
	c.state = StateClosed
	c.ctrlPending = 0
	return nil
}
