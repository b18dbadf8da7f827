package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Handshake option types. Options are TLVs so future micro-protocols can
// add capabilities without breaking old peers: unknown options received
// in a Connect are simply not echoed in the Accept, which is exactly the
// "intersection" semantics capability negotiation needs.
const (
	optReliability  uint8 = 1
	optFeedbackMode uint8 = 2
	optTargetRate   uint8 = 3
	optMSS          uint8 = 4
	optConnID       uint8 = 5
	optStreams      uint8 = 6
	optToken        uint8 = 7
	optKeyShare     uint8 = 8
	optTicket       uint8 = 9
	optEarlyData    uint8 = 10
	optCongestion   uint8 = 11
)

// KeyShareLen is the size of the X25519 key-share TLV value.
const KeyShareLen = 32

// ReliabilityMode selects the reliability micro-protocol.
type ReliabilityMode uint8

// Reliability modes, in increasing order of service.
const (
	ReliabilityNone    ReliabilityMode = 0 // pure stream, no retransmission
	ReliabilityPartial ReliabilityMode = 1 // retransmit until the deadline
	ReliabilityFull    ReliabilityMode = 2 // retransmit until delivered
)

func (m ReliabilityMode) String() string {
	switch m {
	case ReliabilityNone:
		return "none"
	case ReliabilityPartial:
		return "partial"
	case ReliabilityFull:
		return "full"
	}
	return fmt.Sprintf("reliability(%d)", uint8(m))
}

// FeedbackMode selects where the TFRC loss event rate is computed.
type FeedbackMode uint8

// Feedback modes.
const (
	// FeedbackReceiverLoss is classic RFC 3448: the receiver maintains the
	// loss interval history and reports p in Feedback frames.
	FeedbackReceiverLoss FeedbackMode = 0
	// FeedbackSenderLoss is QTPlight: the receiver emits bare SACK frames
	// and the sender reconstructs the loss history itself.
	FeedbackSenderLoss FeedbackMode = 1
)

func (m FeedbackMode) String() string {
	switch m {
	case FeedbackReceiverLoss:
		return "receiver-loss"
	case FeedbackSenderLoss:
		return "sender-loss"
	}
	return fmt.Sprintf("feedback(%d)", uint8(m))
}

// CongestionMode selects the congestion-control micro-protocol driving
// the sender's pacing rate.
type CongestionMode uint8

// Congestion modes. The zero value is the TFRC family (plain TFRC, or
// gTFRC when a target rate is negotiated) — it is never carried on the
// wire, so a connection that does not ask for anything else produces
// byte-identical legacy framing and an absent TLV always means TFRC.
const (
	// CongestionTFRC is the equation-based TFRC family (RFC 3448 /
	// gTFRC): rate from the throughput equation over receiver reports.
	CongestionTFRC CongestionMode = 0
	// CongestionBBR is the bandwidth×RTT estimator: pacing from a
	// windowed max-bandwidth filter with gain cycling and an inflight
	// cap, fed by per-packet send/ack events.
	CongestionBBR CongestionMode = 1
)

func (m CongestionMode) String() string {
	switch m {
	case CongestionTFRC:
		return "tfrc"
	case CongestionBBR:
		return "bbr"
	}
	return fmt.Sprintf("congestion(%d)", uint8(m))
}

// ParseCongestion maps a flag-style name to a congestion mode. "gtfrc"
// is accepted as an alias for the TFRC family — the gTFRC clamp is
// selected by a positive target rate, not by the wire mode.
func ParseCongestion(s string) (CongestionMode, error) {
	switch s {
	case "tfrc", "gtfrc", "":
		return CongestionTFRC, nil
	case "bbr":
		return CongestionBBR, nil
	}
	return 0, fmt.Errorf("packet: unknown congestion mode %q", s)
}

// Handshake is the payload of Connect and Accept frames. A Connect
// carries the client's proposal; the Accept carries the server's final
// choice (a subset/intersection of the proposal).
type Handshake struct {
	Reliability      ReliabilityMode
	ReliabilityParam uint32 // deadline in ms (partial) or 0
	FeedbackMode     FeedbackMode
	TargetRate       uint64 // negotiated QoS rate g, bytes/s; 0 = best effort
	MSS              uint16 // maximum segment (payload) size in bytes

	// ConnID is the sender's local connection identifier: the value the
	// peer must stamp in the header of every subsequent frame it sends,
	// so a multiplexed endpoint can demultiplex many connections sharing
	// one socket. Zero means "not carried" — the peer keeps addressing
	// frames with whatever ID the header already used, which is the
	// pre-multiplexing symmetric behaviour.
	ConnID uint32

	// MaxStreams is the stream-multiplexing capability: the greatest
	// number of concurrent streams the sender is prepared to run on the
	// connection. Zero means "not carried": the TLV is omitted, an old
	// peer never sees it, and the connection stays single-stream with
	// the pre-stream frame layout. The negotiated value is the minimum
	// of what both sides offered; multi-stream framing activates at 2+.
	MaxStreams uint16

	// Congestion is the congestion-control capability: the sender's
	// proposed (Connect) or the responder's granted (Accept) congestion
	// controller. CongestionTFRC (zero) means "not carried" — the TLV is
	// omitted, an old peer never sees it, and the connection runs the
	// legacy TFRC family. Like the streams TLV, the negotiated value is
	// the intersection: a responder unwilling to grant the proposal
	// answers with the TLV absent and both sides fall back to TFRC.
	Congestion CongestionMode

	// Token is the opaque source-address token echoed back from a Retry
	// frame (Connect only; see qcrypto.Minter). Empty means "not carried" —
	// the TLV is omitted and old peers never see it. The server treats a
	// token-bearing Connect from the address the token was minted for as
	// address-validated and exempt from stateless-retry challenges.
	Token []byte

	// KeyShare is the sender's ephemeral X25519 public key (exactly 32
	// bytes when carried). Both Connect and Accept carry one on an
	// encrypted connection; its absence where crypto is required fails
	// the handshake, so a middlebox stripping the TLV causes a refusal,
	// not a silent plaintext downgrade.
	KeyShare []byte

	// Ticket is the encrypted session ticket. In an Accept it is the
	// server granting resumption state for a future connection; in a
	// Connect it is the client redeeming one to send 0-RTT data under
	// the resumed key. Empty means "not carried".
	Ticket []byte

	// EarlyAccept (Accept only) is the server acknowledging that it
	// opened the client's 0-RTT epoch: the ticket verified and the
	// negotiated profile matches the ticket's. Because the Accept
	// payload is bound into the key-schedule transcript, this bit
	// cannot be forged off.
	EarlyAccept bool
}

// Equal reports whether two handshakes carry the same negotiated values,
// treating a nil and an empty Token alike (the wire cannot distinguish
// them). Handshake is not comparable with == because of the Token slice.
func (h *Handshake) Equal(o *Handshake) bool {
	return h.Reliability == o.Reliability &&
		h.ReliabilityParam == o.ReliabilityParam &&
		h.FeedbackMode == o.FeedbackMode &&
		h.TargetRate == o.TargetRate &&
		h.MSS == o.MSS &&
		h.ConnID == o.ConnID &&
		h.MaxStreams == o.MaxStreams &&
		h.Congestion == o.Congestion &&
		bytes.Equal(h.Token, o.Token) &&
		bytes.Equal(h.KeyShare, o.KeyShare) &&
		bytes.Equal(h.Ticket, o.Ticket) &&
		h.EarlyAccept == o.EarlyAccept
}

// AppendTo appends the encoded handshake to dst and returns the result.
func (h *Handshake) AppendTo(dst []byte) ([]byte, error) {
	if len(h.Token) > 255 {
		return dst, fmt.Errorf("%w: token length %d", ErrOption, len(h.Token))
	}
	if len(h.KeyShare) != 0 && len(h.KeyShare) != KeyShareLen {
		return dst, fmt.Errorf("%w: key share length %d", ErrOption, len(h.KeyShare))
	}
	if len(h.Ticket) > 255 {
		return dst, fmt.Errorf("%w: ticket length %d", ErrOption, len(h.Ticket))
	}
	count := byte(4)
	if h.ConnID != 0 {
		count++
	}
	if h.MaxStreams != 0 {
		count++
	}
	if h.Congestion != 0 {
		count++
	}
	if len(h.Token) != 0 {
		count++
	}
	if len(h.KeyShare) != 0 {
		count++
	}
	if len(h.Ticket) != 0 {
		count++
	}
	if h.EarlyAccept {
		count++
	}
	dst = append(dst, count)
	dst = append(dst, optReliability, 5, uint8(h.Reliability))
	dst = binary.BigEndian.AppendUint32(dst, h.ReliabilityParam)
	dst = append(dst, optFeedbackMode, 1, uint8(h.FeedbackMode))
	dst = append(dst, optTargetRate, 8)
	dst = binary.BigEndian.AppendUint64(dst, h.TargetRate)
	dst = append(dst, optMSS, 2)
	dst = binary.BigEndian.AppendUint16(dst, h.MSS)
	if h.ConnID != 0 {
		dst = append(dst, optConnID, 4)
		dst = binary.BigEndian.AppendUint32(dst, h.ConnID)
	}
	if h.MaxStreams != 0 {
		dst = append(dst, optStreams, 2)
		dst = binary.BigEndian.AppendUint16(dst, h.MaxStreams)
	}
	if h.Congestion != 0 {
		dst = append(dst, optCongestion, 1, uint8(h.Congestion))
	}
	if len(h.Token) != 0 {
		dst = append(dst, optToken, uint8(len(h.Token)))
		dst = append(dst, h.Token...)
	}
	if len(h.KeyShare) != 0 {
		dst = append(dst, optKeyShare, KeyShareLen)
		dst = append(dst, h.KeyShare...)
	}
	if len(h.Ticket) != 0 {
		dst = append(dst, optTicket, uint8(len(h.Ticket)))
		dst = append(dst, h.Ticket...)
	}
	if h.EarlyAccept {
		dst = append(dst, optEarlyData, 0)
	}
	return dst, nil
}

// Parse decodes a handshake payload. Unknown options are skipped, which
// lets older builds interoperate with peers offering newer capabilities.
func (h *Handshake) Parse(b []byte) error {
	return walkTLVs(b, func(typ uint8, v []byte) error {
		ln := len(v)
		switch typ {
		case optReliability:
			if ln != 5 {
				return fmt.Errorf("%w: reliability length %d", ErrOption, ln)
			}
			h.Reliability = ReliabilityMode(v[0])
			h.ReliabilityParam = binary.BigEndian.Uint32(v[1:5])
		case optFeedbackMode:
			if ln != 1 {
				return fmt.Errorf("%w: feedback length %d", ErrOption, ln)
			}
			h.FeedbackMode = FeedbackMode(v[0])
		case optTargetRate:
			if ln != 8 {
				return fmt.Errorf("%w: target rate length %d", ErrOption, ln)
			}
			h.TargetRate = binary.BigEndian.Uint64(v)
		case optMSS:
			if ln != 2 {
				return fmt.Errorf("%w: mss length %d", ErrOption, ln)
			}
			h.MSS = binary.BigEndian.Uint16(v)
		case optConnID:
			if ln != 4 {
				return fmt.Errorf("%w: conn id length %d", ErrOption, ln)
			}
			h.ConnID = binary.BigEndian.Uint32(v)
		case optStreams:
			if ln != 2 {
				return fmt.Errorf("%w: streams length %d", ErrOption, ln)
			}
			h.MaxStreams = binary.BigEndian.Uint16(v)
		case optCongestion:
			if ln != 1 {
				return fmt.Errorf("%w: congestion length %d", ErrOption, ln)
			}
			h.Congestion = CongestionMode(v[0])
		case optToken:
			if ln == 0 {
				return fmt.Errorf("%w: empty token", ErrOption)
			}
			h.Token = append(h.Token[:0], v...)
		case optKeyShare:
			if ln != KeyShareLen {
				return fmt.Errorf("%w: key share length %d", ErrOption, ln)
			}
			h.KeyShare = append(h.KeyShare[:0], v...)
		case optTicket:
			if ln == 0 {
				return fmt.Errorf("%w: empty ticket", ErrOption)
			}
			h.Ticket = append(h.Ticket[:0], v...)
		case optEarlyData:
			if ln != 0 {
				return fmt.Errorf("%w: early data length %d", ErrOption, ln)
			}
			h.EarlyAccept = true
		default:
			// Unknown option: skip.
		}
		return nil
	})
}

// walkTLVs walks a count-prefixed TLV list — one count byte, then that
// many (type (1), length (1), value) options — calling fn on each in
// order. A missing count byte is ErrShort and an option that overruns
// b is ErrOption; fn's first error stops the walk and is returned.
func walkTLVs(b []byte, fn func(typ uint8, v []byte) error) error {
	if len(b) < 1 {
		return ErrShort
	}
	n := int(b[0])
	b = b[1:]
	for i := 0; i < n; i++ {
		if len(b) < 2 || len(b) < 2+int(b[1]) {
			return ErrOption
		}
		v := b[2 : 2+int(b[1])]
		if err := fn(b[0], v); err != nil {
			return err
		}
		b = b[2+len(v):]
	}
	return nil
}
