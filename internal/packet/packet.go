// Package packet defines the QTP wire format: a fixed 24-byte header
// followed by a type-specific payload (data, TFRC feedback, SACK vector,
// or handshake TLVs). On an encrypted connection whole frames travel
// inside sealed datagrams (TypeSealed): a 12-byte cleartext prefix —
// version/type, epoch, 48-bit crypto sequence, connection ID — followed
// by the AEAD ciphertext and 16-byte tag; docs/WIRE.md is the normative
// byte-level description.
//
// Encoding is append-based (AppendTo) and decoding fills caller-owned
// structs, so steady-state send/receive paths allocate nothing. The same
// frames travel over the simulated network (internal/netsim) and over
// real UDP (internal/qtpnet); only this package knows byte offsets.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/seqspace"
)

// Version is the wire-format version emitted and accepted by this
// build. It pins the sealed-datagram suite and key schedule as well as
// the layouts: 2 is AES-256-GCM with the qtp/2 salts and key update.
const Version = 2

// HeaderLen is the length of the fixed QTP header in bytes.
const HeaderLen = 24

// MaxSACKBlocks caps the number of SACK blocks carried in one frame.
// RFC 2018 TCP carries at most 4; QTP frames have room for more, which
// matters for QTPlight where SACK blocks are the only loss signal.
const MaxSACKBlocks = 16

// Type identifies the payload carried by a QTP frame.
type Type uint8

// Frame types.
const (
	TypeInvalid     Type = iota
	TypeConnect          // client hello carrying the proposed profile
	TypeAccept           // server response carrying the agreed profile
	TypeConfirm          // client confirmation; connection established
	TypeData             // application payload
	TypeFeedback         // RFC 3448 receiver report (+ optional SACK blocks)
	TypeSACK             // QTPlight light feedback: SACK vector only
	TypeClose            // sender has no more data
	TypeCloseAck         // close acknowledgment
	TypeStreamReset      // forward-FIN: terminate one expiring stream standalone
	TypeRetry            // stateless server retry carrying a source-address token
	TypeSealed           // AEAD-sealed datagram wrapping an inner frame (see sealed.go)
	typeMax
)

var typeNames = [...]string{
	"invalid", "connect", "accept", "confirm", "data",
	"feedback", "sack", "close", "closeack", "streamreset", "retry",
	"sealed",
}

// Cleartext reports whether a frame of this type travels unencrypted
// on an encrypted connection. Only the handshake frames that carry or
// precede key agreement do — everything else must arrive inside a
// TypeSealed datagram once crypto is on.
func Cleartext(t Type) bool {
	return t == TypeConnect || t == TypeAccept || t == TypeRetry
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Header flags.
const (
	// FlagFIN marks the last data frame of the stream.
	FlagFIN uint8 = 1 << iota
	// FlagRetransmit marks a frame that carries retransmitted data.
	FlagRetransmit
	// FlagExpedited marks data exempt from reliability (never retransmitted).
	FlagExpedited
	// FlagStream marks a data frame whose payload begins with a
	// StreamInfo prefix (multi-stream connections only; see stream.go).
	FlagStream
)

// Wire-format errors.
var (
	ErrShort      = errors.New("packet: buffer too short")
	ErrVersion    = errors.New("packet: unsupported version")
	ErrType       = errors.New("packet: unknown frame type")
	ErrBlockCount = errors.New("packet: too many SACK blocks")
	ErrTruncated  = errors.New("packet: payload length exceeds buffer")
	ErrOption     = errors.New("packet: malformed handshake option")
)

// Header is the fixed part of every QTP frame.
//
// Timestamps are microseconds modulo 2^32 from an arbitrary per-endpoint
// epoch; TSEcho echoes the peer's most recent Timestamp so either side
// can measure RTT without synchronised clocks (the echoing side adds its
// holding delay in the payload where precision matters).
type Header struct {
	Type       Type
	Flags      uint8
	ConnID     uint32
	Seq        seqspace.Seq
	Timestamp  uint32 // sender clock, µs mod 2^32
	TSEcho     uint32 // echo of the most recent peer Timestamp
	RTTUS      uint32 // sender's current RTT estimate in µs (RFC 3448 §3.2.1)
	PayloadLen uint16
}

// AppendTo appends the encoded header to dst and returns the result.
func (h *Header) AppendTo(dst []byte) []byte {
	var b [HeaderLen]byte
	b[0] = Version<<4 | uint8(h.Type)&0x0f
	b[1] = h.Flags
	binary.BigEndian.PutUint16(b[2:4], h.PayloadLen)
	binary.BigEndian.PutUint32(b[4:8], h.ConnID)
	binary.BigEndian.PutUint32(b[8:12], uint32(h.Seq))
	binary.BigEndian.PutUint32(b[12:16], h.Timestamp)
	binary.BigEndian.PutUint32(b[16:20], h.TSEcho)
	binary.BigEndian.PutUint32(b[20:24], h.RTTUS)
	return append(dst, b[:]...)
}

// Parse decodes the header from b, returning the payload bytes that
// follow it.
func (h *Header) Parse(b []byte) (payload []byte, err error) {
	if len(b) < HeaderLen {
		return nil, ErrShort
	}
	if v := b[0] >> 4; v != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	h.Type = Type(b[0] & 0x0f)
	// TypeSealed is rejected here on purpose: sealed datagrams use the
	// shorter prefix in sealed.go, not this header layout.
	if h.Type == TypeInvalid || h.Type >= typeMax || h.Type == TypeSealed {
		return nil, fmt.Errorf("%w: %d", ErrType, uint8(h.Type))
	}
	h.Flags = b[1]
	h.PayloadLen = binary.BigEndian.Uint16(b[2:4])
	h.ConnID = binary.BigEndian.Uint32(b[4:8])
	h.Seq = seqspace.Seq(binary.BigEndian.Uint32(b[8:12]))
	h.Timestamp = binary.BigEndian.Uint32(b[12:16])
	h.TSEcho = binary.BigEndian.Uint32(b[16:20])
	h.RTTUS = binary.BigEndian.Uint32(b[20:24])
	if int(h.PayloadLen) > len(b)-HeaderLen {
		return nil, ErrTruncated
	}
	return b[HeaderLen : HeaderLen+int(h.PayloadLen)], nil
}

// SACKBlock reports a contiguous range of received sequence numbers,
// [Lo, Hi), above the cumulative acknowledgment: the range the
// receiver's interval set holds, so blocks go to and from the wire
// without conversion.
type SACKBlock = seqspace.Range

// SACK is the acknowledgment vector, and by itself the QTPlight
// receiver feedback. The receiver computes nothing else — no loss
// intervals, no rates — so its per-packet cost is a couple of
// interval-set updates.
type SACK struct {
	CumAck    seqspace.Seq
	ElapsedUS uint32 // holding delay of the echoed frame at the receiver, µs
	Blocks    []SACKBlock
	// Streams is the per-stream cumulative-ack tail (multi-stream
	// connections only; empty on the wire otherwise).
	Streams []StreamAck
}

const sackFixedLen = 4 + 4 + 1

// AppendTo appends the encoded vector to dst and returns the result.
func (s *SACK) AppendTo(dst []byte) ([]byte, error) {
	if len(s.Blocks) > MaxSACKBlocks {
		return dst, ErrBlockCount
	}
	var b [sackFixedLen]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(s.CumAck))
	binary.BigEndian.PutUint32(b[4:8], s.ElapsedUS)
	b[8] = uint8(len(s.Blocks))
	return s.appendTail(append(dst, b[:]...))
}

// Parse decodes an acknowledgment vector, reusing s.Blocks capacity.
func (s *SACK) Parse(b []byte) error {
	if len(b) < sackFixedLen {
		return ErrShort
	}
	s.CumAck = seqspace.Seq(binary.BigEndian.Uint32(b[0:4]))
	s.ElapsedUS = binary.BigEndian.Uint32(b[4:8])
	return s.parseTail(b[sackFixedLen:], int(b[8]))
}

// appendTail appends the blocks and the stream tail that follow the
// fixed fields of both acknowledgment frames.
func (s *SACK) appendTail(dst []byte) ([]byte, error) {
	return appendStreamAcks(appendBlocks(dst, s.Blocks), s.Streams)
}

// parseTail decodes n blocks and the stream tail from b.
func (s *SACK) parseTail(b []byte, n int) error {
	var err error
	s.Blocks, err = parseBlocks(s.Blocks, b, n)
	if err != nil {
		return err
	}
	s.Streams, err = parseStreamAcks(s.Streams, b[8*n:])
	return err
}

// Feedback is the RFC 3448 §6 receiver report: the acknowledgment
// vector plus the receive rate and loss event rate the classic TFRC
// receiver computes itself. Its fixed fields come in the order X_recv,
// p, elapsed, cumulative ack, block count.
type Feedback struct {
	XRecv    uint64  // receive rate since the last report, bytes/s
	LossRate float64 // receiver-computed loss event rate p (0..1)
	SACK
}

const feedbackFixedLen = 8 + 4 + 4 + 4 + 1

// AppendTo appends the encoded report to dst and returns the result.
func (f *Feedback) AppendTo(dst []byte) ([]byte, error) {
	if len(f.Blocks) > MaxSACKBlocks {
		return dst, ErrBlockCount
	}
	var b [feedbackFixedLen]byte
	binary.BigEndian.PutUint64(b[0:8], f.XRecv)
	binary.BigEndian.PutUint32(b[8:12], math.Float32bits(float32(f.LossRate)))
	binary.BigEndian.PutUint32(b[12:16], f.ElapsedUS)
	binary.BigEndian.PutUint32(b[16:20], uint32(f.CumAck))
	b[20] = uint8(len(f.Blocks))
	return f.appendTail(append(dst, b[:]...))
}

// Parse decodes a receiver report. Blocks are decoded into f.Blocks,
// reusing its capacity.
func (f *Feedback) Parse(b []byte) error {
	if len(b) < feedbackFixedLen {
		return ErrShort
	}
	f.XRecv = binary.BigEndian.Uint64(b[0:8])
	f.LossRate = float64(math.Float32frombits(binary.BigEndian.Uint32(b[8:12])))
	f.ElapsedUS = binary.BigEndian.Uint32(b[12:16])
	f.CumAck = seqspace.Seq(binary.BigEndian.Uint32(b[16:20]))
	return f.parseTail(b[feedbackFixedLen:], int(b[20]))
}

func appendBlocks(dst []byte, blocks []SACKBlock) []byte {
	for _, blk := range blocks {
		var p [8]byte
		binary.BigEndian.PutUint32(p[0:4], uint32(blk.Lo))
		binary.BigEndian.PutUint32(p[4:8], uint32(blk.Hi))
		dst = append(dst, p[:]...)
	}
	return dst
}

func parseBlocks(dst []SACKBlock, b []byte, n int) ([]SACKBlock, error) {
	if n > MaxSACKBlocks {
		return dst[:0], ErrBlockCount
	}
	if len(b) < 8*n {
		return dst[:0], ErrShort
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, SACKBlock{
			Lo: seqspace.Seq(binary.BigEndian.Uint32(b[8*i : 8*i+4])),
			Hi: seqspace.Seq(binary.BigEndian.Uint32(b[8*i+4 : 8*i+8])),
		})
	}
	return dst, nil
}
