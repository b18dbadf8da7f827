package qtp

import (
	"errors"
	"time"

	"repro/internal/packet"
	"repro/internal/sack"
	"repro/internal/seqspace"
)

// The stream engine. Every connection carries application streams, each
// with its own delivery mode and its own sequence space, over one
// congestion-controlled connection; there is one send path, one receive
// path and one close rule, and they are per stream. What negotiation
// decides is only how many streams there may be and, with that, how a
// data frame is framed:
//
//   - Prefixed (core.Profile.MaxStreams >= 2): a data frame names its
//     stream, stream sequence number, mode and the sender's ack floor in
//     a varint prefix, and feedback carries a per-stream cumulative-ack
//     tail. The sender may open up to MaxStreams concurrent streams.
//   - Unprefixed (no streams capability): a data frame is the fixed
//     header and the payload, nothing else. It *is* stream 0: the only
//     stream, counted in the connection's own sequence space (stream seq
//     ≡ header Seq), its delivery mode given by the profile's reliability
//     instead of a prefix, and the receiver's ack floor is stream 0's own
//     cumulative ack since none travels on the wire.
//
// The split of responsibilities:
//
//   - The frame header's Seq is the connection-level sequence number —
//     one per first transmission across all streams, reused by
//     retransmissions — which is what TFRC/gTFRC rate control and the
//     QTPlight sender-side loss estimator count in. Rate is a connection
//     resource; streams share it.
//   - Reliability moves per stream: each send stream owns a
//     sack.SendBuffer (scoreboard keyed by the stream's own sequence
//     space, segments remembering their connection-level number for ack
//     matching), and each receive stream owns a sack.Reassembler, built
//     for its mode: ordered, ordered with a hole hold (expiring, and the
//     unreliable stream 0), or unordered (no head-of-line blocking).
//   - Acknowledgments are connection-level (the CumAck/Blocks of every
//     feedback frame, from the one Conn.received) plus, with the prefix,
//     a small per-stream cumulative-ack tail. The sender stamps an "ack
//     floor" — its lowest unresolved connection sequence — in the prefix
//     so the receiver can advance its connection-level ack past holes
//     that belong to abandoned expiring segments and keep its state
//     bounded; holes below a reliable segment's number are never passed,
//     because the floor never moves beyond an unresolved segment.
//   - Scheduling is round-robin across streams, retransmissions first,
//     one frame per pacing slot, so a backlogged bulk stream cannot
//     starve a paced media stream sharing the connection.

// Stream-layer errors.
var (
	ErrNoStreams     = errors.New("qtp: stream multiplexing not negotiated")
	ErrStreamLimit   = errors.New("qtp: stream limit reached")
	ErrUnknownStream = errors.New("qtp: unknown stream")
)

// StreamStats is a per-stream counter snapshot. Sender-side counters are
// populated on the sending endpoint, receiver-side ones on the
// receiving endpoint.
type StreamStats struct {
	ID   uint64
	Mode packet.StreamMode

	// Sender side.
	DataFramesSent int
	DataBytesSent  int // payload bytes, first transmissions
	RetransFrames  int
	RetransBytes   int
	AbandonedSegs  int // expiring segments given up past their deadline

	// Receiver side.
	DeliveredBytes int // bytes released to the application
	UnreadBytes    int // of those, still on the ready queue waiting to be read
	SkippedSegs    int // expiring holes skipped past (never delivered)
	DuplicateSegs  int
}

// sendStream is the sender half of one stream.
type sendStream struct {
	id       uint64
	mode     packet.StreamMode
	deadline time.Duration // expiring mode: retransmission bound

	// buf is the scoreboard and the one store of the stream's bytes, from
	// WriteStream until their segment resolves.
	buf     *sack.SendBuffer
	nextSeq seqspace.Seq // next stream-level sequence number

	// unreliable marks stream 0 of a ReliabilityNone profile (only
	// unprefixed: Profile.Normalize refuses streams without reliability),
	// whose segments resolve as soon as they are on the wire.
	unreliable bool

	open   bool // Write still allowed
	finSet bool
	finSeq seqspace.Seq

	// Forward FIN (expiring mode): an expiring stream whose tail —
	// including the FIN — expired unacknowledged stops retransmitting,
	// so the receiver would hold the stream open until connection close.
	// Once such a stream is locally resolved with abandoned segments and
	// the receiver has not reported its cum past the FIN, a StreamReset
	// frame announces where the stream ends. resetPending keeps done()
	// false until the reset is answered (receiver cum crosses the FIN)
	// or retries run out.
	resetArmed   bool          // reset sequence initiated, never re-armed
	resetPending bool          // reset frames still being emitted
	resetTries   int           // StreamReset frames sent so far
	resetDue     time.Duration // next emission instant
	peerCum      seqspace.Seq  // highest receiver-reported stream cum ack
	peerCumSet   bool

	// spent marks a stream that has had its turn in the current
	// scheduling round (see pickStream).
	spent bool

	frames, bytes           int
	retransFrames, retransB int
}

// newSendStream opens a stream; deadline is 0 unless mode is StreamExpiring.
func newSendStream(id uint64, mode packet.StreamMode, deadline time.Duration, start seqspace.Seq) *sendStream {
	return &sendStream{
		id: id, mode: mode, deadline: deadline,
		buf: sack.NewSendBuffer(deadline), nextSeq: start, open: true,
	}
}

// needFin reports whether the stream still owes the wire a FIN: closed,
// drained, data was sent, but the final segment has not been built. The
// scheduler then emits an empty FIN segment (a stream that never sent
// anything closes invisibly).
func (s *sendStream) needFin() bool {
	return !s.open && !s.finSet && s.frames > 0 && s.buf.Queued() == 0
}

// done reports whether the stream is fully resolved: closed, drained,
// FIN out (or nothing ever sent), every segment acked or abandoned, and
// no forward FIN still owed to the receiver.
func (s *sendStream) done() bool {
	if s.open || s.buf.Queued() != 0 || s.needFin() || s.resetPending {
		return false
	}
	return !s.buf.Unresolved()
}

// recvStream is the receiver half of one stream.
type recvStream struct {
	id   uint64
	mode packet.StreamMode

	*sack.Reassembler // built for the mode (newRecvStream)

	// connSeq marks the unprefixed stream 0, whose sequence space is the
	// connection's: its cumulative ack doubles as the ack floor.
	connSeq bool

	// finalAcked marks that the stream's final cumulative ack has been
	// advertised to the sender since it finished; the stream then stops
	// riding the per-stream ack tail and becomes retirable. A late
	// duplicate arrival clears it so the final ack is re-advertised.
	finalAcked bool
}

// newRecvStream builds a receive stream; hold is how long an ordered
// stream holds a hole before delivering around it (0 never: full
// reliability).
func newRecvStream(id uint64, mode packet.StreamMode, hold time.Duration, start seqspace.Seq) *recvStream {
	rs := &recvStream{id: id, mode: mode}
	if mode == packet.StreamReliableUnordered {
		rs.Reassembler = sack.NewUnordered(start)
	} else {
		rs.Reassembler = sack.NewReassembler(start, hold)
	}
	return rs
}

// holdFor is the hole hold of a stream the sender describes: an
// expiring stream holds a hole a bit past the sender's retransmission
// deadline so a last retransmission still has time to arrive; any other
// mode never skips.
func holdFor(mode packet.StreamMode, deadline time.Duration) time.Duration {
	if mode == packet.StreamExpiring {
		return deadline + deadline/2
	}
	return 0
}

// maxBacklog caps the bytes queued by Write and not yet sent, across a
// connection's streams, before the transport pushes back. Bytes sent and
// not yet acknowledged do not count: the rate controller bounds them,
// and a lossy path's flight can outgrow the cap (sim_lossy's sender
// holds up to 2.5 MB), so counting them would refuse writes the path can
// take.
const maxBacklog = 1 << 20

// deliveryBound caps a stream's unread bytes — what sits on its ready
// queue, the one place a delivered chunk waits for the application; an
// arrival that would pass it is refused (see refuses). It mirrors the
// send side's maxBacklog, per stream so a stalled reader cannot take its
// siblings' buffer. Both are constants: what bounds memory is not a
// knob. On a reliable stream only ready bytes count, never the
// out-of-order buffer, or the frontier retransmission that unblocks
// delivery could itself be refused; what it frees (at most a flight) may
// pass the bound. An expiring stream counts its out-of-order buffer too,
// for every arrival but the frontier's: its skip moves the whole buffer
// onto the ready queue at once, and behind a refused frontier that
// buffer is every arrival of the skip interval.
const deliveryBound = 1 << 20

// unreliableSkip is how long an unreliable profile's stream 0 holds a
// reordering gap before delivering around it.
const unreliableSkip = 250 * time.Millisecond

// refuses reports whether an arrival of n bytes at stream sequence seq
// would pass deliveryBound.
func (rs *recvStream) refuses(seq seqspace.Seq, n int) bool {
	held := rs.Unread()
	if rs.mode == packet.StreamExpiring && seq != rs.CumAck() {
		held += rs.BufferedBytes()
	}
	return held+n > deliveryBound
}

// ---- Conn: stream-layer construction ----------------------------------

// stream0Mode maps the negotiated connection profile onto stream 0's
// delivery mode. An unreliable profile's stream 0 is ordered delivery
// that skips: no scoreboard on the sender (sendStream.unreliable), a
// hole held for unreliableSkip on the receiver.
func (c *Conn) stream0Mode() (packet.StreamMode, time.Duration) {
	if c.profile.Reliability == packet.ReliabilityPartial {
		return packet.StreamExpiring, c.profile.Deadline
	}
	return packet.StreamReliableOrdered, 0
}

// openRecvStream registers a receive stream, announcing every stream
// but 0 to AcceptStreamID.
func (c *Conn) openRecvStream(id uint64, mode packet.StreamMode, hold time.Duration, start seqspace.Seq) *recvStream {
	rs := newRecvStream(id, mode, hold, start)
	c.recvByID[id] = rs
	c.recvOrder = append(c.recvOrder, rs)
	if id != 0 {
		c.acceptQ = append(c.acceptQ, id)
	}
	return rs
}

// openRecvStream0 opens the unprefixed stream 0 on its first frame. No
// frame says what it is: its mode and its hole hold follow from the
// profile, and it counts in the connection's sequence space.
func (c *Conn) openRecvStream0() *recvStream {
	mode, deadline := c.stream0Mode()
	hold := holdFor(mode, deadline)
	if c.profile.Reliability == packet.ReliabilityNone {
		hold = unreliableSkip
	}
	rs := c.openRecvStream(0, mode, hold, c.cfg.startSeq)
	rs.connSeq = true
	return rs
}

// recvStreamFor returns the receive stream a prefix or a StreamReset
// names, created from what the frame says about it on first sight. A
// retired stream yields nil: its stragglers must not resurrect it.
func (c *Conn) recvStreamFor(id uint64, mode packet.StreamMode, deadlineMS uint32) (*recvStream, error) {
	if rs := c.recvByID[id]; rs != nil {
		return rs, nil
	}
	if _, ok := c.retired[id]; ok {
		return nil, nil
	}
	if len(c.recvByID) >= c.profile.MaxStreams {
		c.stats.DecodeErrors++
		return nil, ErrStreamLimit
	}
	hold := holdFor(mode, time.Duration(deadlineMS)*time.Millisecond)
	return c.openRecvStream(id, mode, hold, c.cfg.streamStartSeq), nil
}

// retireStreams reclaims finished streams so MaxStreams caps
// *concurrent* streams, not lifetime ones, and dead scoreboards stop
// costing per-frame scans and ack-tail bytes. A retired stream leaves a
// final stats snapshot behind (ledgers read stats after completion) and,
// on the receiver, a tombstone that swallows stragglers instead of
// letting a late retransmission resurrect the stream as fresh data.
func (c *Conn) retireStreams() {
	for i := 0; i < len(c.sendStreams); {
		s := c.sendStreams[i]
		// Stream 0 is the connection's implicit default and never retires.
		if s.id == 0 || !s.done() {
			i++
			continue
		}
		if c.retired == nil {
			c.retired = make(map[uint64]StreamStats)
		}
		st, _ := c.StreamStats(s.id)
		c.retired[s.id] = st
		delete(c.sendByID, s.id)
		c.sendStreams = append(c.sendStreams[:i], c.sendStreams[i+1:]...)
	}
	for i := 0; i < len(c.recvOrder); {
		rs := c.recvOrder[i]
		// An undrained stream stays: its chunks are still owed to a reader.
		if rs.id == 0 || !rs.Finished() || !rs.finalAcked || rs.Unread() > 0 {
			i++
			continue
		}
		if c.retired == nil {
			c.retired = make(map[uint64]StreamStats)
		}
		st, _ := c.StreamStats(rs.id)
		c.retired[rs.id] = st
		delete(c.recvByID, rs.id)
		c.recvOrder = append(c.recvOrder[:i], c.recvOrder[i+1:]...)
	}
}

// ---- Conn: stream application API -------------------------------------

// MultiStream reports whether the connection negotiated stream
// multiplexing.
func (c *Conn) MultiStream() bool { return c.multi }

// OpenStream creates a new outbound stream with the given delivery mode
// (sender side, established connections that negotiated the streams
// capability only). deadline is
// the retransmission bound for StreamExpiring and must be positive for
// it; it is ignored for the reliable modes. The new stream's ID is
// returned; the receiver learns of the stream from its first frame.
// Every stream gets an equal share of the data scheduler.
func (c *Conn) OpenStream(mode packet.StreamMode, deadline time.Duration) (uint64, error) {
	if !c.isSender() {
		return 0, ErrNotSender
	}
	if !c.multi {
		return 0, ErrNoStreams
	}
	if c.state != StateEstablished {
		return 0, ErrBadState
	}
	if len(c.sendStreams) >= c.profile.MaxStreams {
		return 0, ErrStreamLimit
	}
	if mode == packet.StreamExpiring && deadline <= 0 {
		return 0, errors.New("qtp: expiring stream requires a deadline")
	}
	if mode != packet.StreamExpiring {
		deadline = 0
	}
	id := c.nextStreamID
	c.nextStreamID++
	s := newSendStream(id, mode, deadline, c.cfg.streamStartSeq)
	c.sendStreams = append(c.sendStreams, s)
	c.sendByID[id] = s
	return id, nil
}

// WriteStream queues application data on the given stream, returning
// how many bytes were accepted (the backlog cap is shared across
// streams, so one unserviced stream cannot monopolize the buffer). They
// wait in the stream's SendBuffer until their segment resolves.
func (c *Conn) WriteStream(id uint64, p []byte) int {
	if c.state == StateClosed {
		return 0
	}
	s := c.sendByID[id]
	if s == nil || !s.open {
		return 0
	}
	room := maxBacklog - c.BacklogLen()
	if room <= 0 {
		return 0
	}
	if len(p) > room {
		p = p[:room]
	}
	s.buf.Write(p)
	return len(p)
}

// CloseStream marks the end of one stream: its final segment carries
// FIN within the stream's own sequence space. The connection closes
// once every stream is closed and resolved.
func (c *Conn) CloseStream(id uint64) error {
	s := c.sendByID[id]
	if s == nil {
		return ErrUnknownStream
	}
	s.open = false
	return nil
}

// ReadStream pops the next delivered chunk off one stream's ready
// queue. Chunks come from bufpool's chunk pool: the application owns the
// slice and releases it with bufpool.PutChunk once consumed. What is not
// read stays queued, up to deliveryBound: a slow reader slows its
// sender, it never loses acknowledged data.
func (c *Conn) ReadStream(id uint64) ([]byte, bool) {
	rs := c.recvByID[id]
	if rs == nil {
		return nil, false
	}
	p, ok := rs.Pop()
	c.stats.DeliveredBytes += len(p)
	return p, ok
}

// ReadAny is ReadStream for a consumer that takes every stream: the
// next chunk of the first stream, in creation order, that has one.
func (c *Conn) ReadAny() (id uint64, p []byte, ok bool) {
	for _, rs := range c.recvOrder {
		if p, ok := rs.Pop(); ok {
			c.stats.DeliveredBytes += len(p)
			return rs.id, p, true
		}
	}
	return 0, nil, false
}

// AcceptStreamID pops the ID of a newly seen inbound stream (receiver
// side). Stream 0 is implicit and never announced.
func (c *Conn) AcceptStreamID() (uint64, bool) {
	if len(c.acceptQ) == 0 {
		return 0, false
	}
	id := c.acceptQ[0]
	c.acceptQ = c.acceptQ[1:]
	return id, true
}

// StreamStats snapshots one stream's counters. Retired (finished and
// reclaimed) streams report their final snapshot.
func (c *Conn) StreamStats(id uint64) (StreamStats, bool) {
	if st, ok := c.retired[id]; ok {
		return st, true
	}
	if s, ok := c.sendByID[id]; ok {
		return StreamStats{
			ID: s.id, Mode: s.mode,
			DataFramesSent: s.frames, DataBytesSent: s.bytes,
			RetransFrames: s.retransFrames, RetransBytes: s.retransB,
			AbandonedSegs: s.buf.AbandonedSegs,
		}, true
	}
	if rs, ok := c.recvByID[id]; ok {
		return StreamStats{
			ID: rs.id, Mode: rs.mode, UnreadBytes: rs.Unread(),
			DeliveredBytes: rs.DeliveredBytes, SkippedSegs: rs.SkippedSegs,
			DuplicateSegs: rs.DuplicateSegs,
		}, true
	}
	return StreamStats{}, false
}

// ---- Conn: stream receive path ----------------------------------------

// liftFloor runs after anything moved a receive stream's cumulative
// ack: the unprefixed stream 0, for which no ack floor travels on the
// wire, lifts the connection-level ack to its own cumulative ack so
// holes it skipped are reported as passed.
func (c *Conn) liftFloor(rs *recvStream) {
	if rs.connSeq {
		c.received.Pass(rs.CumAck())
	}
}

// recvBlocks appends up to max SACK blocks for feedback frames.
//
// BBR windows routinely outgrow the wire's block budget; reporting only
// the lowest blocks would leave every arrival above the truncation
// horizon invisible — no delivery samples for the peer's estimator and
// no scoreboard resolution, which freezes the window. For those
// connections the budget is split between the retransmit frontier and
// the newest arrivals. TFRC keeps nearest-first.
func (c *Conn) recvBlocks(dst []seqspace.Range, max int) []seqspace.Range {
	ranges := c.received.Above()
	if c.profile.Congestion == packet.CongestionBBR {
		return seqspace.AppendSplit(dst, ranges, max)
	}
	if len(ranges) > max {
		ranges = ranges[:max]
	}
	return append(dst, ranges...)
}

// streamAckTail builds the per-stream cumulative-ack tail for a
// feedback frame; unprefixed framing has none. A finished stream
// advertises its final cum once and then drops off the tail
// (re-advertised if a duplicate arrival shows the sender missed it), so
// long-lived connections do not pay ack bytes for every stream they
// ever carried.
func (c *Conn) streamAckTail() []packet.StreamAck {
	if !c.multi {
		return nil
	}
	c.ackTail = c.ackTail[:0]
	for _, rs := range c.recvOrder {
		if len(c.ackTail) >= packet.MaxStreams {
			break
		}
		if rs.Finished() {
			if rs.finalAcked {
				continue
			}
			rs.finalAcked = true
		}
		c.ackTail = append(c.ackTail, packet.StreamAck{ID: rs.id, CumAck: rs.CumAck()})
	}
	return c.ackTail
}

// Finished reports whether the receive half has delivered everything:
// every stream that carried data is through its FIN and the application
// has read its last chunk — so the idiomatic receive loop, for
// !Finished() { Read }, cannot exit with data still queued. It answers
// for the receiving endpoint only — a sender has nothing to finish. An
// expiring stream whose tail (FIN included) was lost and abandoned can
// never deliver it; once the peer has initiated the connection close —
// its signal that every stream is resolved on the sending side —
// whatever such a stream still misses is by definition expired, so it
// counts as finished.
func (c *Conn) Finished() bool {
	if c.isSender() {
		return false
	}
	if len(c.recvOrder) == 0 {
		// Only retired (hence finished) streams remain, if any.
		return len(c.retired) > 0
	}
	peerDone := c.state == StateClosing || c.state == StateClosed
	for _, rs := range c.recvOrder {
		done := rs.Finished() || (rs.mode == packet.StreamExpiring && peerDone)
		if !done || rs.Unread() > 0 {
			return false
		}
	}
	return true
}

// ---- Conn: stream acknowledgments and forward FIN ---------------------

// onStreamAcks folds a feedback frame's acknowledgment state into every
// stream scoreboard: the connection-level vector resolves segments by
// their connection sequence, then each per-stream cumulative ack
// applies receiver-authoritative release (an expiring stream's receiver
// skipping a stale hole moves its cum past the hole, telling the sender
// to stop caring even before its own deadline fires).
func (c *Conn) onStreamAcks(now time.Duration, cum seqspace.Seq, ranges []seqspace.Range, acks []packet.StreamAck) {
	for _, s := range c.sendStreams {
		s.buf.OnConnSACK(now, cum, ranges)
	}
	for _, a := range acks {
		if s := c.sendByID[a.ID]; s != nil {
			s.buf.OnSACK(now, a.CumAck, nil)
			if !s.peerCumSet || s.peerCum.Less(a.CumAck) {
				s.peerCum, s.peerCumSet = a.CumAck, true
			}
			if s.resetPending && s.finSet && s.finSeq.Less(s.peerCum) {
				// The receiver crossed the FIN: the forward FIN is
				// answered, stop retrying and let the stream resolve.
				s.resetPending = false
			}
		}
	}
}

// streamResetMaxTries bounds StreamReset retransmissions: once spent,
// the receiver almost certainly saw one, and the connection close stops
// waiting on an answer.
const streamResetMaxTries = 4

// armStreamResets scans for expiring streams that resolved with
// abandoned segments while the receiver's reported cumulative ack never
// crossed the FIN: their tail (FIN included) expired on the wire, so
// without help the receiver would hold the stream open until connection
// close. Each such stream starts a forward-FIN sequence exactly once.
// StreamReset is a frame of the streams capability; an unprefixed
// connection closes on its sender's say-so alone.
func (c *Conn) armStreamResets(now time.Duration) {
	if !c.multi {
		return
	}
	for _, s := range c.sendStreams {
		if s.resetArmed || s.mode != packet.StreamExpiring {
			continue
		}
		if s.open || s.buf.Queued() != 0 || s.needFin() || !s.finSet {
			continue
		}
		if s.buf.Unresolved() || s.buf.AbandonedSegs == 0 {
			continue
		}
		if s.peerCumSet && s.finSeq.Less(s.peerCum) {
			continue // receiver already delivered (or skipped) past the FIN
		}
		s.resetArmed = true
		s.resetPending = true
		s.resetDue = now
	}
}

// pollStreamReset emits one due StreamReset frame, if any stream owes
// the receiver a forward FIN.
func (c *Conn) pollStreamReset(now time.Duration, dst []byte) ([]byte, bool) {
	for _, s := range c.sendStreams {
		if !s.resetPending || now < s.resetDue {
			continue
		}
		sr := packet.StreamReset{
			ID: s.id, Mode: s.mode, FinSeq: s.finSeq,
			DeadlineMS: uint32(s.deadline / time.Millisecond),
		}
		c.scratch = sr.AppendTo(c.scratch[:0])
		frame := appendFrame(dst, c.header(packet.TypeStreamReset, now), c.scratch)
		s.resetTries++
		if s.resetTries >= streamResetMaxTries {
			s.resetPending = false
		} else {
			s.resetDue = now + c.retxTimeout()
		}
		c.stats.StreamResetsSent++
		return frame, true
	}
	return nil, false
}

// onStreamReset applies a forward FIN: the sender terminated one
// expiring stream whose tail it abandoned, so the stream finishes now —
// holes at or below the FIN will never fill — instead of holding until
// connection close.
func (c *Conn) onStreamReset(now time.Duration, payload []byte) error {
	if c.isSender() {
		return ErrBadState
	}
	if !c.multi {
		c.stats.DecodeErrors++
		return errors.New("qtp: stream reset without the streams capability")
	}
	var sr packet.StreamReset
	if err := sr.Parse(payload); err != nil {
		c.stats.DecodeErrors++
		return err
	}
	// A stream unknown so far lost every data frame: it is instantiated
	// just to finish it, so AcceptStreamID and Finished stay consistent.
	rs, err := c.recvStreamFor(sr.ID, sr.Mode, sr.DeadlineMS)
	if err != nil || rs == nil || rs.mode == packet.StreamReliableUnordered {
		// Refused, already finished and reclaimed, or reliable-unordered
		// (which never legitimately resets).
		return err
	}
	rs.ForceFin(now, sr.FinSeq)
	rs.finalAcked = false // (re-)advertise the final cum until it lands
	c.liftFloor(rs)
	c.stats.StreamResetsRcvd++
	// Answer promptly: the sender retries until it sees our cum cross
	// the FIN.
	c.ackNow = true
	return nil
}
