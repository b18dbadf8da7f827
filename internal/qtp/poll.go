package qtp

import (
	"time"

	"repro/internal/packet"
	"repro/internal/seqspace"
)

// Control retransmission schedule: exponential backoff from
// ctrlRetryBase doubling up to ctrlRetryCap, with deterministic ±25%
// jitter per connection so a churn storm of synchronized clients
// (everyone reconnecting after an outage) de-correlates instead of
// retrying in lockstep. The total wait across ctrlMaxTries (~7.8s
// nominal) matches the old fixed 1s × 8 cadence, so give-up timing is
// unchanged.
const (
	ctrlRetryBase = 200 * time.Millisecond
	ctrlRetryCap  = 1600 * time.Millisecond
)

// ctrlMaxTries bounds control retransmissions before giving up.
const ctrlMaxTries = 8

// ctrlBackoff returns the wait after transmission number try (0-based):
// min(base<<try, cap) plus the connection's deterministic jitter.
// Determinism matters: the simulator replays runs bit-exactly per seed,
// so the jitter derives from the connection ID and try count rather
// than a global RNG.
func (c *Conn) ctrlBackoff(try int) time.Duration {
	if try < 0 {
		try = 0
	}
	d := ctrlRetryBase << uint(min(try, 8))
	if d > ctrlRetryCap {
		d = ctrlRetryCap
	}
	return d + time.Duration(float64(d)*ctrlJitter(c.localID, uint32(try)))
}

// ctrlJitter maps (id, try) to a factor in [-0.25, 0.25) via a
// splitmix64-style finalizer.
func ctrlJitter(id, try uint32) float64 {
	x := uint64(id)<<32 | uint64(try)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return (float64(x>>11)/float64(1<<53) - 0.5) * 0.5
}

// PollFrame returns the next frame the endpoint wants on the wire at
// time now, or ok=false if nothing is due yet. Drivers call it in a loop
// after any event (inbound frame, timer, application write) until it
// returns false, transmitting each frame; a driver that polls after the
// pacing boundary gets the data frames it slept through in that loop
// (see pace). The returned slice is freshly
// allocated; drivers that transmit asynchronously (queueing frames for
// a batched writer) should use PollFrameAppend to build into their own
// buffer instead.
func (c *Conn) PollFrame(now time.Duration) (frame []byte, ok bool) {
	return c.PollFrameAppend(now, nil)
}

// PollFrameAppend is PollFrame building into caller-owned memory: the
// frame, if one is due, is appended to dst and the extended slice
// returned. A driver that enqueues frames on a batch-send queue passes
// a pooled buffer per call and hands ownership of the filled buffer to
// its writer, so no frame bytes are copied between the state machine
// and the wire.
func (c *Conn) PollFrameAppend(now time.Duration, dst []byte) (frame []byte, ok bool) {
	c.advance(now)

	// 1. Control plane (handshake, close) has priority; a forward FIN
	// owed to the peer rides just behind it.
	if c.ctrlPending != 0 && now >= c.ctrlDue {
		return c.buildControl(now, dst), true
	}
	if f, ok := c.pollStreamReset(now, dst); ok {
		return f, true
	}
	// 2. Receiver side: the owed acknowledgment, or TFRC's periodic
	// report.
	if c.ackNow {
		return c.buildAck(now, dst), true
	}
	if c.nextFBAt != 0 && now >= c.nextFBAt {
		if c.tfrcRecv.PendingBytes() > 0 {
			return c.buildAck(now, dst), true
		}
		// Nothing arrived since the last report: stay silent and re-arm
		// (RFC 3448 §6.2).
		c.nextFBAt = now + c.tfrcRecv.FeedbackInterval()
	}
	// 3. Sender side: paced data. sendActive also admits a 0-RTT
	// initiator still in Connecting, whose data rides the first flight
	// sealed under the early keys.
	if c.started && c.sendActive() && now+c.paceAhead() >= c.nextSendAt {
		if f, ok := c.buildData(now, dst); ok {
			return f, true
		}
	}
	c.paceHeld = c.started && c.sendActive() && c.sendWorkPending() && c.rc.CanSend()
	return nil, false
}

// advance applies time-based transitions due at or before now.
func (c *Conn) advance(now time.Duration) {
	if c.rc != nil && c.started && c.state == StateEstablished {
		for now >= c.rc.NoFeedbackDeadline() {
			c.rc.OnNoFeedback(now)
		}
	}
	// Streams that skip stale frontier holes do so on their own clock;
	// whatever that frees up lands on their ready queues.
	for _, rs := range c.recvOrder {
		rs.OnDeadline(now)
		c.liftFloor(rs)
	}
	c.armStreamResets(now)
	c.retireStreams()
	// Completion: queue Close once every stream is resolved. A stream
	// closed before any data was written closes without a FIN.
	if c.closeReady() {
		c.state = StateClosing
		c.ctrlPending = packet.TypeClose
		c.ctrlDue = now
	}
}

// closeReady reports whether the sender has nothing left to deliver and
// should initiate teardown: every stream closed, drained, FIN'd (or
// never used) and resolved.
func (c *Conn) closeReady() bool {
	if !c.isSender() || c.state != StateEstablished || !c.started || c.ctrlPending != 0 {
		return false
	}
	for _, s := range c.sendStreams {
		if !s.done() {
			return false
		}
	}
	return true
}

// sendWorkPending reports whether any stream has queued data or an owed
// FIN.
func (c *Conn) sendWorkPending() bool {
	for _, s := range c.sendStreams {
		if s.buf.Queued() > 0 || s.needFin() {
			return true
		}
	}
	return false
}

// buildControl encodes the pending control frame, appended to dst. A
// Connect or Accept replays its pinned payload byte for byte: encrypted,
// the key schedule hashes those exact bytes on both ends, so a
// retransmission must not re-encode.
func (c *Conn) buildControl(now time.Duration, dst []byte) []byte {
	typ := c.ctrlPending
	var payload []byte
	switch typ {
	case packet.TypeConnect:
		payload = c.connectPayload
	case packet.TypeAccept:
		payload = c.acceptPayload
	}
	frame := appendFrame(dst, c.header(typ, now), payload)

	c.ctrlTries++
	switch typ {
	case packet.TypeConfirm, packet.TypeCloseAck:
		// Fire-and-forget; data (or silence) serves as the retry signal.
		c.ctrlPending = 0
		c.ctrlTries = 0
		if typ == packet.TypeCloseAck {
			c.state = StateClosed
		}
	default:
		if c.ctrlTries >= ctrlMaxTries {
			c.ctrlPending = 0
			c.ctrlTries = 0
			if c.state == StateConnecting || c.state == StateClosing {
				c.state = StateClosed
			}
		} else {
			c.ctrlDue = now + c.ctrlBackoff(c.ctrlTries-1)
		}
	}
	return frame
}

// header returns the fixed header of a frame to the peer: its type,
// the peer's connection ID, our clock and the echo of the peer's latest
// timestamp.
func (c *Conn) header(typ packet.Type, now time.Duration) packet.Header {
	hdr := packet.Header{Type: typ, ConnID: c.remoteID, Timestamp: nowUS(now)}
	if c.havePeerTS {
		hdr.TSEcho = c.lastPeerTS
	}
	return hdr
}

// appendFrame appends hdr, its payload length covering parts, and then
// parts to dst.
func appendFrame(dst []byte, hdr packet.Header, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	hdr.PayloadLen = uint16(n)
	dst = hdr.AppendTo(dst)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// buildAck encodes the acknowledgment the receiver owes, appended to
// dst. It is one ack vector in either feedback mode. A classic TFRC
// receiver wraps it in a report with its own X_recv and p, and carries
// blocks only when reliability is negotiated. A QTPlight receiver sends
// the bare vector: no loss history, no rate measurement, no equation —
// its entire contribution is two interval-set lookups.
func (c *Conn) buildAck(now time.Duration, dst []byte) []byte {
	c.ackNow = false
	v := packet.SACK{CumAck: c.received.Cum(), Streams: c.streamAckTail()}
	if c.havePeerTS {
		v.ElapsedUS = uint32((now - c.lastPeerTSAt) / time.Microsecond)
	}
	if c.tfrcRecv == nil || c.profile.Reliability != packet.ReliabilityNone {
		c.blockBuf = c.recvBlocks(c.blockBuf[:0], c.profile.SACKBlockBudget)
		v.Blocks = c.blockBuf
	}
	if c.tfrcRecv == nil {
		c.scratch, _ = v.AppendTo(c.scratch[:0])
		frame := appendFrame(dst, c.header(packet.TypeSACK, now), c.scratch)
		c.stats.SACKFrames++
		c.stats.SACKBytes += len(frame) - len(dst)
		return frame
	}
	c.nextFBAt = now + c.tfrcRecv.FeedbackInterval()
	xRecv, p := c.tfrcRecv.MakeReport(now)
	fb := packet.Feedback{XRecv: uint64(xRecv), LossRate: p, SACK: v}
	c.scratch, _ = fb.AppendTo(c.scratch[:0])
	frame := appendFrame(dst, c.header(packet.TypeFeedback, now), c.scratch)
	c.stats.FeedbackFrames++
	c.stats.FeedbackBytes += len(frame) - len(dst)
	return frame
}

// buildData emits one paced data frame, appended to dst: any stream's
// due retransmission first (round-robin), otherwise a fresh segment from
// the stream pickStream selects.
func (c *Conn) buildData(now time.Duration, dst []byte) ([]byte, bool) {
	rto := c.retxTimeout()
	streams := len(c.sendStreams)
	for k := 0; k < streams; k++ {
		s := c.sendStreams[(c.rrRetx+k)%streams]
		seq, conn, n, ok := s.buf.NextRetransmitSeg(now, rto)
		if !ok {
			continue
		}
		c.rrRetx = (c.rrRetx + k + 1) % streams
		fin := s.finSet && seq == s.finSeq
		frame := c.dataFrame(now, dst, s, conn, seq, true, fin)
		c.stats.RetransFrames++
		c.stats.RetransBytes += n
		s.retransFrames++
		s.retransB += n
		c.pace(now, len(frame)-len(dst))
		return frame, true
	}
	if !c.rc.CanSend() {
		// A window-limited controller (BBR) has a full bottleneck-delay
		// product in flight: fresh data waits for acknowledgments (the
		// retransmission path above stays open — retransmits reuse their
		// inflight budget).
		return nil, false
	}
	s := c.pickStream()
	if s == nil {
		return nil, false
	}
	seq := s.nextSeq
	s.nextSeq = seq.Next()
	conn := c.nextSeq
	c.nextSeq = conn.Next()
	// Nothing queued here means the stream owes a bare FIN: CloseStream
	// arrived after the last data segment went out, so the stream end
	// travels as an empty segment, retransmitted like data.
	n := s.buf.Cut(now, seq, conn, c.profile.MSS)
	fin := !s.open && s.buf.Queued() == 0
	if fin {
		s.finSeq = seq
		s.finSet = true
	}
	c.rc.OnSent(now, conn, n+packet.HeaderLen)
	frame := c.dataFrame(now, dst, s, conn, seq, false, fin)
	if s.unreliable {
		// Never retransmitted: the segment resolves once it is on the wire.
		s.buf.OnSACK(now, seq.Next(), nil)
	}
	c.stats.DataFramesSent++
	c.stats.DataBytesSent += n
	s.frames++
	s.bytes += n
	c.pace(now, len(frame)-len(dst))
	return frame, true
}

// pickStream selects the stream whose fresh data (or owed FIN) goes out
// next: deficit round-robin at weight 1. Each stream with something to
// send has one turn per round; a round ends when no stream with
// something to send has a turn left, and a stream whose data arrives
// after its turn waits for the next round. The rrData cursor keeps the
// order fair across calls. A plain cursor round-robin would serve that
// stream at once and so send multi-stream frames in another order.
func (c *Conn) pickStream() *sendStream {
	n := len(c.sendStreams)
	for newRound := false; ; newRound = true {
		for k := 0; k < n; k++ {
			s := c.sendStreams[(c.rrData+k)%n]
			if s.spent || (s.buf.Queued() == 0 && !s.needFin()) {
				continue
			}
			s.spent = true
			c.rrData = (c.rrData + k + 1) % n
			return s
		}
		if newRound {
			// A fresh round made nobody eligible: nothing to send.
			return nil
		}
		for _, s := range c.sendStreams {
			s.spent = false
		}
	}
}

// ackFloor returns the sender's lowest unresolved connection-level
// sequence number, stamped in the stream prefix of outgoing data frames.
func (c *Conn) ackFloor() seqspace.Seq {
	floor := c.nextSeq
	for _, s := range c.sendStreams {
		if m, ok := s.buf.MinUnresolvedConn(); ok && m.Less(floor) {
			floor = m
		}
	}
	return floor
}

// dataFrame encodes one data frame: fixed header, the varint stream
// prefix when the connection negotiated it, segment streamSeq's payload
// from the stream's SendBuffer. Without the prefix the frame is stream 0
// by construction and connSeq says everything streamSeq would.
func (c *Conn) dataFrame(now time.Duration, dst []byte, s *sendStream,
	connSeq, streamSeq seqspace.Seq, retx, fin bool) []byte {

	hdr := c.header(packet.TypeData, now)
	hdr.Seq = connSeq
	hdr.RTTUS = uint32(c.rc.RTT() / time.Microsecond)
	var prefix []byte
	if c.multi {
		si := packet.StreamInfo{
			ID: s.id, Seq: streamSeq, Mode: s.mode, AckFloor: c.ackFloor(),
		}
		if s.mode == packet.StreamExpiring {
			si.DeadlineMS = uint32(s.deadline / time.Millisecond)
		}
		prefix = si.AppendTo(c.scratch[:0], connSeq)
		c.scratch = prefix
		hdr.Flags = packet.FlagStream
	}
	if retx {
		hdr.Flags |= packet.FlagRetransmit
	}
	if fin {
		hdr.Flags |= packet.FlagFIN
	}
	head, tail := s.buf.Payload(streamSeq)
	return appendFrame(dst, hdr, prefix, head, tail)
}

// paceBurst is the most frames a late poll may send back to back: the
// pacing credit a connection keeps for send times its driver's clock
// slept through (RFC 3448 §4.6's "sending credits for past unused send
// times", bounded).
const paceBurst = 16

// A connection whose full-MSS frame interval is shorter than paceQuantum
// paces in quanta: a due poll releases every frame whose send time falls
// within the next q−1 intervals, q = min(⌊paceQuantum/ipi⌋,
// paceQuantumFrames). This is the rule Linux TCP applies through TSO
// autosizing: at a rate where one frame per wake-up would cost more in
// loop rounds and send calls than the frame itself, a wake-up sends one
// segment train instead. A quantum holds two frames only from one frame
// per 50 µs up: a pacing rate of 28.5 MB/s at the default 1,400-byte
// MSS. TFRC paces at most twice the receive rate, so on the simulated
// paths (the frame traces' 250 kB/s link, sim_lossy's 12.5 MB/s) it
// never gets there. BBR does: in Startup it paces at 2/ln 2 times its
// bandwidth estimate, 36 MB/s on the cc-matrix's 12.5 MB/s link, and
// sends 2-frame quanta, one frame up to one 40 µs interval early. The
// bottleneck queue absorbs that, and the cc-matrix table does not move.
// The frame cap is the kernel's UDP_MAX_SEGMENTS, the most one GSO train
// carries.
const (
	paceQuantum       = 100 * time.Microsecond
	paceQuantumFrames = 64
)

// paceAhead is how far ahead of its schedule a poll may send: (q−1)
// full-MSS intervals, 0 below the quantum's rate.
func (c *Conn) paceAhead() time.Duration {
	ipi := c.rc.InterPacketInterval(c.profile.MSS + packet.HeaderLen)
	if ipi <= 0 {
		return 0
	}
	q := min(int(paceQuantum/ipi), paceQuantumFrames)
	if q <= 1 {
		return 0
	}
	return time.Duration(q-1) * ipi
}

// pace advances the pacing schedule by one frame's interval. While the
// connection was pacing-limited, or is running ahead of its schedule
// inside a quantum, the schedule keeps its own time, so a poll L late
// sends min(⌊L/ipi⌋+1, paceBurst) frames at once instead of one (plus
// the quantum's lead) and a quantum cannot reset the clock; after an
// idle, window-limited or retransmit-only spell it restarts at now. A
// driver that polls exactly at NextWake is never late.
func (c *Conn) pace(now time.Duration, wireSize int) {
	ipi := c.rc.InterPacketInterval(wireSize)
	from := now
	if c.paceHeld || c.nextSendAt > now {
		from = max(c.nextSendAt, now-(paceBurst-1)*ipi)
	}
	c.nextSendAt = from + ipi
}

// retxTimeout is the retransmission timer: generous relative to RTT so
// the dup-threshold SACK path does almost all the work.
func (c *Conn) retxTimeout() time.Duration {
	rtt := c.rc.RTT()
	if rtt == 0 {
		return time.Second
	}
	rto := 4 * rtt
	if rto < 10*time.Millisecond {
		rto = 10 * time.Millisecond
	}
	return rto
}

// NextWake returns the earliest future instant at which PollFrame could
// produce a frame or a timer must run; ok=false means the connection is
// fully idle (nothing pending at any time).
func (c *Conn) NextWake(now time.Duration) (at time.Duration, ok bool) {
	merge := func(t time.Duration) {
		if t <= now {
			t = now
		}
		if !ok || t < at {
			at, ok = t, true
		}
	}
	if c.state == StateClosed {
		return 0, false
	}
	if c.ctrlPending != 0 {
		merge(c.ctrlDue)
	}
	if c.ackNow {
		merge(now)
	}
	if c.nextFBAt != 0 {
		merge(c.nextFBAt)
	}
	for _, rs := range c.recvOrder {
		if t, dok := rs.NextDeadline(); dok {
			merge(t)
		}
	}
	if c.started && c.sendActive() {
		// Data is due at the pacing boundary less the quantum's lead: a
		// wake at the boundary itself would park the driver for up to a
		// quantum, which an idle runtime oversleeps to its timer tick.
		release := c.nextSendAt - c.paceAhead()
		if c.sendWorkPending() && c.rc.CanSend() {
			// Fresh data is due at release — but only while the
			// controller's inflight cap admits it; a window-limited
			// connection wakes on acknowledgments (the driver polls after
			// HandleFrame) or the nofeedback deadline below, not on a
			// timer that would poll to no effect.
			merge(release)
		}
		merge(c.rc.NoFeedbackDeadline())
		rto := c.retxTimeout()
		for _, s := range c.sendStreams {
			if t, bok := s.buf.NextTimeout(rto); bok {
				// Retransmissions are paced like data: due no earlier
				// than release.
				merge(max(t, release))
			}
			if s.resetPending {
				merge(s.resetDue)
			}
		}
		if c.closeReady() {
			merge(now)
		}
	}
	return at, ok
}
