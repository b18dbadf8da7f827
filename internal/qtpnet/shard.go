package qtpnet

import (
	"encoding/binary"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/packet"
	"repro/internal/qcrypto"
	"repro/internal/qtp"
)

// peerKey routes handshake frames, which arrive before the peer can
// know the local connection ID our demux table is keyed on: a Connect
// is identified by where it came from plus the initiator's own ID, so
// many initiators behind one remote socket stay distinct.
type peerKey struct {
	addr netip.AddrPort
	id   uint32
}

// handoffCap is the per-shard hand-off inbox capacity. Cross-shard
// forwards are the exception on the steady path — the kernel hashes a
// flow to the same shard that minted its CID unless the flow was dialed
// out or the peer moved — so a modest queue absorbs the bursts that do
// occur; overflow drops the frame (counted), which is no worse than the
// datagram loss the transport already recovers from.
const handoffCap = 256

// shard is one socket of an Endpoint and everything that is per-socket:
// the batched data path, the send scheduler, the demux tables and the
// timer heap of the connections it minted, and the one goroutine (loop)
// that drives them. Shards share nothing on the per-datagram path; what
// is per-port (accept queue, token and ticket minters, resumption
// cache, lifecycle) lives once on the Endpoint they point back to.
type shard struct {
	ep   *Endpoint
	idx  uint32
	pc   *net.UDPConn
	bio  batchIO
	caps *pathCaps
	tx   *sendScheduler
	// inbox receives datagrams sibling shards forward here, each in its
	// own pooled buffer; nil on a one-shard endpoint, which is how the
	// shard knows its connection IDs carry no shard bits and no frame is
	// ever foreign.
	inbox chan ioMsg

	mu         sync.Mutex
	byID       map[uint32]*Conn  // local conn ID -> conn (data-plane route)
	byPeer     map[peerKey]*Conn // (peer addr, peer conn ID) -> conn (handshake route)
	timers     connHeap
	nextID     uint32
	sleepUntil time.Duration // the deadline the loop is parked on; awake while it runs a round
	closed     bool
	// Accept token bucket (guarded by mu): hsTokens is the current
	// balance, refilled at cfg.AcceptRate up to hsBurst.
	hsTokens float64
	hsBurst  float64
	hsLast   time.Duration

	// Receive-side counters (written by whoever runs a round).
	datagramsIn  atomic.Uint64
	recvBatches  atomic.Uint64
	maxRecvBatch atomic.Uint64
	noRoute      atomic.Uint64
	recvDrops    atomic.Uint64
	groMerged    atomic.Uint64

	// Cross-shard counters (see EndpointStats).
	crossFwd  atomic.Uint64
	crossRecv atomic.Uint64
	crossDrop atomic.Uint64

	// Handshake-hardening counters (see EndpointStats).
	retrySent      atomic.Uint64
	tokenInvalid   atomic.Uint64
	hsDropped      atomic.Uint64
	ampCapped      atomic.Uint64
	acceptOverflow atomic.Uint64

	// Datagram-crypto counters (see EndpointStats).
	sealFails       atomic.Uint64
	openFails       atomic.Uint64
	ticketsIssued   atomic.Uint64
	zeroRTTAccepted atomic.Uint64
	zeroRTTRejected atomic.Uint64

	// deliverSc is the scratch of Deliver callers' rounds, in turn.
	deliverMu sync.Mutex
	deliverSc rxScratch
}

// newShard builds shard idx of e around an already-bound socket. Its
// loop does not run until start.
func newShard(e *Endpoint, idx uint32, pc *net.UDPConn) *shard {
	// Best-effort: an endpoint still works (just drops more under burst)
	// if the kernel refuses the request outright.
	_ = pc.SetReadBuffer(socketBufferBytes)
	_ = pc.SetWriteBuffer(socketBufferBytes)
	bio, caps := newBatchIO(pc, rxBatch, e.cfg.DataPath)
	sh := &shard{
		ep:     e,
		idx:    idx,
		pc:     pc,
		bio:    bio,
		caps:   caps,
		byID:   make(map[uint32]*Conn),
		byPeer: make(map[peerKey]*Conn),
		nextID: 1,
	}
	if e.cfg.Shards > 1 {
		sh.inbox = make(chan ioMsg, handoffCap)
	}
	if e.cfg.AcceptInbound {
		sh.hsBurst = math.Max(e.cfg.AcceptRate, minAcceptBurst)
		sh.hsTokens = sh.hsBurst
	}
	sh.tx = newSendScheduler(bio, caps, txBatch, e.fail)
	return sh
}

// start runs the shard's loop. The endpoint calls it only once every
// shard exists: a round may forward to any sibling's inbox.
func (sh *shard) start() { go sh.loop() }

// close tears down the shard's connections and releases its socket.
// Only Endpoint.Close calls it, once, after closing done.
func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	conns := make([]*Conn, 0, len(sh.byID))
	for _, c := range sh.byID {
		conns = append(conns, c)
	}
	sh.mu.Unlock()
	sh.tx.stop()
	for _, c := range conns {
		c.teardown()
	}
	sh.pc.Close()
}

// connCount returns the number of live connections on the shard.
func (sh *shard) connCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.byID)
}

// stats snapshots the shard's datagram-path counters.
func (sh *shard) stats() EndpointStats {
	st := EndpointStats{
		DatagramsIn:     sh.datagramsIn.Load(),
		DatagramsOut:    sh.tx.datagramsOut.Load(),
		RecvBatches:     sh.recvBatches.Load(),
		SendBatches:     sh.tx.batches.Load(),
		MaxRecvBatch:    int(sh.maxRecvBatch.Load()),
		MaxSendBatch:    int(sh.tx.maxSeen.Load()),
		NoRoute:         sh.noRoute.Load(),
		RecvDrops:       sh.recvDrops.Load(),
		SendErrs:        sh.tx.errTransient.Load(),
		SendDrops:       sh.tx.drops.Load(),
		GsoTrains:       sh.tx.gsoTrains.Load(),
		GsoSegs:         sh.tx.gsoSegs.Load(),
		GroMerged:       sh.groMerged.Load(),
		CrossShardFwd:   sh.crossFwd.Load(),
		CrossShardRecv:  sh.crossRecv.Load(),
		CrossShardDrops: sh.crossDrop.Load(),

		RetrySent:           sh.retrySent.Load(),
		TokenInvalid:        sh.tokenInvalid.Load(),
		HandshakeDropped:    sh.hsDropped.Load(),
		AmplificationCapped: sh.ampCapped.Load(),
		AcceptOverflow:      sh.acceptOverflow.Load(),

		SealFailures:    sh.sealFails.Load(),
		OpenFailures:    sh.openFails.Load(),
		TicketsIssued:   sh.ticketsIssued.Load(),
		ZeroRTTAccepted: sh.zeroRTTAccepted.Load(),
		ZeroRTTRejected: sh.zeroRTTRejected.Load(),

		GsoFallbacks: sh.caps.gsoFallbacks.Load(),
	}
	st.Wakeups = st.RecvBatches
	return st
}

// now is the shard's protocol clock, shared by every connection it
// serves: its batchIO's.
func (sh *shard) now() time.Duration { return sh.bio.now() }

// awake is what sleepUntil reads while the loop runs a round (and on a
// shard no loop drives): no deadline is earlier, so nothing kicks.
// dueRounds bounds how many iterations in a row the loop may run due
// deadlines without trying the socket: few enough that an
// acknowledgment waits a few frame times at most.
const (
	awake     time.Duration = 0
	dueRounds               = 8
)

// loop is the shard's one goroutine. Datagrams on its socket, frames
// siblings forwarded to its inbox and deadlines in its heap all go
// through one round: take what the socket has, add what the inbox
// holds, handle every frame, service each connection a frame or a due
// deadline touched exactly once, flush once, then park in the next read
// until the heap's earliest deadline (forever on an empty heap): the
// goroutine that learns a frame may go is the one that sends it.
//
// Fairness: every iteration pops the due deadlines, so a socket that
// always has data cannot starve a pacing, RTO or grace deadline. A heap
// whose head is always due cannot starve the socket either: the loop
// does not park then, and on one such iteration in dueRounds its read
// is a non-blocking attempt (not on each: a connection paced faster than
// the loop turns makes every iteration one, and an empty attempt costs
// what a frame does).
//
// One recvmmsg fills the receive ring where the platform allows; a ring
// buffer holding a UDP_GRO super-datagram is sliced by expandGRO into
// per-packet views aliasing the ring, so the demux never knows. A round
// retains no frame memory: the ring serves every batch, pool traffic zero.
func (sh *shard) loop() {
	bufs := bufpool.GetBatch(rxBatch)
	defer bufpool.PutBatch(bufs)
	ms := make([]ioMsg, rxBatch)
	for i := range ms {
		ms[i].buf = bufs[i]
	}
	var sc rxScratch
	var views []ioMsg
	unread := 0 // iterations since the socket was last tried
	for {
		n := 0
		if park := sh.arm(&sc); park || unread == dueRounds-1 {
			var err error
			if n, err = sh.bio.readBatch(ms, park); err != nil {
				// A dead socket outside shutdown leaves the shard deaf; fail
				// the endpoint so Accept returns and every connection is torn
				// down rather than stalling silently.
				sh.ep.fail(err)
				break
			}
			unread = 0
			if park {
				// What came due during the park goes into this round.
				sh.mu.Lock()
				sh.sleepUntil = awake
				sh.popDueLocked(&sc)
				sh.mu.Unlock()
			}
		} else {
			unread++
		}
		var merged uint64
		views, merged = expandGRO(ms[:n], views[:0])
		if n > 0 {
			sh.datagramsIn.Add(uint64(len(views)))
			sh.groMerged.Add(merged)
			sh.recvBatches.Add(1)
			if uint64(len(views)) > sh.maxRecvBatch.Load() {
				sh.maxRecvBatch.Store(uint64(len(views)))
			}
		}
		// The loop is its inbox's only receiver: what len reports is there.
		fromSocket := len(views)
		for i := len(sh.inbox); i > 0; i-- {
			views = append(views, <-sh.inbox)
			sh.crossRecv.Add(1)
		}
		sh.deliverBatch(views, &sc)
		for _, m := range views[fromSocket:] {
			bufpool.Put(m.buf)
		}
	}
	// The inbox is never closed (nothing waits for its senders, the
	// siblings' rounds): a forward that races shutdown leaves its buffer
	// to the collector.
	for i := len(sh.inbox); i > 0; i-- {
		bufpool.Put((<-sh.inbox).buf)
	}
}

// popDueLocked moves the connections whose deadline has passed from the
// heap to the round's service list. Callers hold sh.mu.
func (sh *shard) popDueLocked(sc *rxScratch) {
	now := sh.now()
	for c, ok := sh.timers.popDue(now); ok; c, ok = sh.timers.popDue(now) {
		sc.touched = append(sc.touched, c)
	}
}

// arm pops what is due and says whether the loop's next read parks —
// it does unless a deadline was due or a forwarded frame waits — and
// if so arms what ends the park: batchIO.park, at the heap's earliest
// wake-up (no deadline on an empty heap), and sleepUntil, by
// which service on an application goroutine knows whether its
// connection's new deadline is earlier than the one the loop sleeps on.
// Both are written under sh.mu, where kick runs too: a kick not ordered
// after the arm it cancels would be overwritten by it and lost. The
// inbox is checked under the same lock, so a forwarder either finds the
// loop parked and kicks it or has its frame seen here. A park that a
// deadline or a kick ends is an empty batch — not a read: RecvBatches
// and Wakeups do not count it.
func (sh *shard) arm(sc *rxScratch) (park bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.popDueLocked(sc); len(sc.touched) > 0 || len(sh.inbox) > 0 {
		return false
	}
	until := time.Duration(math.MaxInt64)
	if len(sh.timers) > 0 {
		until = sh.timers[0].wakeAt
	}
	sh.bio.park(until)
	sh.sleepUntil = until
	return true
}

// expandGRO appends one per-wire-datagram view of each received
// message to out: messages that arrived merged by UDP_GRO (segSize
// set below the read length) are sliced at the kernel-reported
// segment size — every slice a full frame, the last possibly shorter
// — while ordinary reads pass through unchanged. The views alias the
// callers' buffers; nothing is copied. The second result counts the
// datagrams recovered from merged reads (the GroMerged stat).
func expandGRO(ms []ioMsg, out []ioMsg) ([]ioMsg, uint64) {
	var merged uint64
	for i := range ms {
		seg := ms[i].segSize
		if seg <= 0 || ms[i].n <= seg {
			out = append(out, ioMsg{buf: ms[i].buf[:ms[i].n], n: ms[i].n, addr: ms[i].addr})
			continue
		}
		for off := 0; off < ms[i].n; off += seg {
			end := off + seg
			if end > ms[i].n {
				end = ms[i].n
			}
			out = append(out, ioMsg{buf: ms[i].buf[off:end], n: end - off, addr: ms[i].addr})
			merged++
		}
	}
	return out, merged
}

// classify pulls the demux key out of a raw datagram: frame type and
// connection ID. ok=false rejects runts and foreign versions.
func classify(dgram []byte) (typ packet.Type, cid uint32, ok bool) {
	if len(dgram) < packet.HeaderLen || dgram[0]>>4 != packet.Version {
		return 0, 0, false
	}
	return packet.Type(dgram[0] & 0x0f), binary.BigEndian.Uint32(dgram[4:8]), true
}

// foreignShard reports whether a classified frame belongs to a
// different shard of this endpoint's reuseport group: the top bits of
// its connection ID name a shard other than this one. Handshake frames
// have no routable CID yet and are always claimed locally — as are
// epoch-0 sealed datagrams: a 0-RTT first flight travels under the
// client's proposed CID (the server's Accept hasn't arrived yet), which
// carries no shard prefix, and the kernel hashes it to the same shard
// as the Connect it rides with.
func (sh *shard) foreignShard(typ packet.Type, cid uint32, dgram []byte) (uint32, bool) {
	if sh.inbox == nil || typ == packet.TypeConnect {
		return 0, false
	}
	if typ == packet.TypeSealed && len(dgram) > 1 && dgram[1] == uint8(qcrypto.Epoch0RTT) {
		return 0, false
	}
	if owner := packet.CIDShard(cid); owner != sh.idx {
		return owner, true
	}
	return 0, false
}

// forwardFrame hands a foreign-shard datagram to its owning shard's
// inbox, kicking the owner's loop if it is parked, and reports whether
// the handoff was accepted. It is called from the wrong shard's round,
// never blocks, and copies dgram into a pooled buffer because the caller
// reuses the memory; a full inbox (or a CID naming a shard that does not
// exist) drops the frame, which the transport recovers like any
// datagram loss.
func (sh *shard) forwardFrame(to uint32, from netip.AddrPort, dgram []byte) bool {
	if int(to) < len(sh.ep.shards) {
		owner := sh.ep.shards[to]
		buf := bufpool.Get()
		n := copy(buf, dgram)
		select {
		case owner.inbox <- ioMsg{buf: buf[:n], n: n, addr: from}:
			sh.crossFwd.Add(1)
			owner.mu.Lock()
			if owner.sleepUntil != awake {
				owner.kick()
			}
			owner.mu.Unlock()
			return true
		default:
			bufpool.Put(buf)
		}
	}
	sh.crossDrop.Add(1)
	return false
}

// deliver runs one round over a batch of one datagram on the caller's
// goroutine: the receive entry behind Endpoint.Deliver. It reports
// whether the frame reached a connection and was accepted — or was
// handed off to the shard its connection ID names (the handoff is
// asynchronous; the owning shard delivers it).
func (sh *shard) deliver(from netip.AddrPort, dgram []byte) bool {
	sh.deliverMu.Lock()
	defer sh.deliverMu.Unlock()
	sc := &sh.deliverSc
	sc.one[0] = ioMsg{buf: dgram, n: len(dgram), addr: from}
	return sh.deliverBatch(sc.one[:], sc) == 1
}

// rxScratch is a round's reusable state; keeping it across rounds keeps
// the receive path allocation-free. touched is the round's service
// list: the loop seeds it with the connections whose deadline is due,
// deliverBatch adds those a frame reached and leaves it empty. one is
// deliver's batch.
type rxScratch struct {
	frames  []rxFrame
	touched []*Conn
	one     [1]ioMsg
}

// rxFrame is one datagram's way through a round: its classification,
// then the connection it resolved to (fresh if this frame created it).
// local is false for frames that never reach the local demux: runts,
// foreign versions, and foreign-shard frames. accounted marks frames
// some other counter has fully charged — a foreign-shard forward
// (CrossShardFwd or CrossShardDrops) or a statelessly answered Connect
// (RetrySent / HandshakeDropped) — so they must not also count as
// no-route.
type rxFrame struct {
	typ       packet.Type
	cid       uint32
	local     bool
	accounted bool
	fresh     bool
	c         *Conn
}

// deliverBatch is the round every event on a shard goes through: the
// loop's read batch, inbox and due deadlines (seeded in sc.touched), or
// deliver's one datagram. Classification and the foreign-shard check
// run without any lock — a frame the kernel hashed to the wrong shard
// goes straight to its owner's inbox, and one that came out of the
// inbox names this shard, so it is never forwarded twice: an unknown
// CID is a plain no-route, which makes cross-shard delivery
// exactly-once. Then every local datagram's route is resolved under a
// single demux-lock acquisition, frames are handled in arrival order,
// and each connection the round touched is serviced exactly once — a
// burst of frames for one connection costs one
// transmit/deliver/reschedule pass, not one per frame. It returns how
// many frames a connection accepted or an owning shard was handed.
func (sh *shard) deliverBatch(ms []ioMsg, sc *rxScratch) (accepted int) {
	sc.frames = sc.frames[:0]
	anyLocal := false
	for i := range ms {
		typ, cid, ok := classify(ms[i].buf[:ms[i].n])
		f := rxFrame{typ: typ, cid: cid, local: ok}
		if ok {
			if to, foreign := sh.foreignShard(typ, cid, ms[i].buf[:ms[i].n]); foreign {
				f.local, f.accounted = false, true
				if sh.forwardFrame(to, ms[i].addr, ms[i].buf[:ms[i].n]) {
					accepted++
				}
			}
		}
		anyLocal = anyLocal || f.local
		sc.frames = append(sc.frames, f)
	}

	shedAny := false
	var now time.Duration
	if anyLocal {
		sh.mu.Lock()
		for i := range sc.frames {
			if f := &sc.frames[i]; f.local {
				f.c, f.fresh, f.accounted = sh.resolveLocked(ms[i].addr, f.typ, f.cid, ms[i].buf[:ms[i].n])
				shedAny = shedAny || f.accounted
			}
		}
		sh.mu.Unlock()
		// The batch left the socket in one read: that instant is every
		// frame's arrival time, so the clock is read once, not per frame.
		now = sh.now()
	}

	for i := range sc.frames {
		f := &sc.frames[i]
		c := f.c
		f.c = nil
		if c == nil {
			if !f.accounted {
				sh.noRoute.Add(1)
			}
			continue
		}
		accountRx(c, f.typ, ms[i].n)
		err := sh.handleFrame(c, ms[i].buf[:ms[i].n], now)
		if f.fresh && !sh.finishAccept(c, err) {
			// Refused before service ran, so no Accept frame went out: the
			// peer keeps retransmitting its Connect and a later attempt may
			// find room.
			continue
		}
		if err == nil {
			accepted++
		}
		if !containsConn(sc.touched, c) {
			sc.touched = append(sc.touched, c)
		}
	}
	// Stateless Retries queued during resolution ride the same
	// end-of-round flush as everything the round produced.
	produced := shedAny
	for i, c := range sc.touched {
		produced = sh.service(c) || produced
		sc.touched[i] = nil
	}
	sc.touched = sc.touched[:0]
	// One flush for the whole round: every frame it produced — acks from
	// many receivers, data releases from many senders, paced frames whose
	// deadline came due — shares the sendmmsg syscalls.
	if produced {
		sh.tx.flushPending()
	}
	return accepted
}

func containsConn(cs []*Conn, c *Conn) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// serviceFlush services one connection and immediately pushes whatever
// frames it produced to the wire: the application goroutines' entry
// (Dial, Write, CloseSend, Close). A round instead flushes once for
// every connection it serviced.
func (sh *shard) serviceFlush(c *Conn) {
	if sh.service(c) {
		sh.tx.flushPending()
	}
}

// accountRx maintains a responder's pre-validation amplification
// state: Connect bytes grow the 3x send allowance, while any frame
// routed by our local CID proves the peer's address — the CID travels
// only in our Accept, so a spoofing attacker can never learn it.
// Sealed datagrams also only grow the allowance: a 0-RTT first flight
// travels under the client's proposed CID, which an off-path attacker
// chose itself, so address proof waits for an authenticated 1-RTT
// open in handleFrame.
func accountRx(c *Conn, typ packet.Type, n int) {
	if c.validated.Load() {
		return
	}
	if typ == packet.TypeConnect || typ == packet.TypeSealed {
		c.ampRx.Add(int64(n))
	} else {
		c.validated.Store(true)
	}
}

// handleFrame feeds one classified datagram, which arrived at now, to
// its connection's state machine, opening sealed datagrams first. Open
// decrypts in place — the receive buffer is the driver's to reuse after
// delivery anyway — and a failed open wipes what it was given: the
// datagram is dropped here on any open error and never read again, so
// no byte of an unauthenticated datagram reaches the state machine. An authenticated
// open at epoch >= 1 (any 1-RTT key generation) proves the peer's
// address where accountRx could not (those keys bind the full
// handshake transcript). On an encrypted connection a cleartext frame of any
// post-handshake type is dropped undecoded: accepting it would let an
// on-path attacker inject the exact plaintext the sealing exists to
// block.
func (sh *shard) handleFrame(c *Conn, dgram []byte, now time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(dgram) > 0 && packet.Type(dgram[0]&0x0f) == packet.TypeSealed {
		sess := c.inner.CryptoSession()
		if sess == nil {
			sh.openFails.Add(1)
			return errSealedBeforeKeys
		}
		frame, epoch, err := sess.Open(dgram)
		if err != nil {
			sh.openFails.Add(1)
			return err
		}
		// The flag only goes from false to true: load first, so the
		// established path pays no locked store per datagram.
		if epoch >= qcrypto.Epoch1RTT && !c.validated.Load() {
			c.validated.Store(true)
		}
		dgram = frame
	} else if c.inner.CryptoEnabled() && len(dgram) > 0 &&
		!packet.Cleartext(packet.Type(dgram[0]&0x0f)) {
		sh.openFails.Add(1)
		return errCleartextOnEncrypted
	}
	err := c.inner.HandleFrame(now, dgram)
	if err == qtp.ErrDeliveryFull { // returned bare
		sh.recvDrops.Add(1)
	}
	return err
}

// resolveLocked finds the connection a classified frame belongs to,
// creating a responder for a first-contact Connect that passes
// stateless admission. isNew reports creation; shed reports that the
// Connect was answered with a stateless Retry (address-validation
// challenge or load shed) instead — a queued frame the caller owes a
// flush for, never a no-route. Callers hold sh.mu.
func (sh *shard) resolveLocked(from netip.AddrPort, typ packet.Type, cid uint32, dgram []byte) (c *Conn, isNew, shed bool) {
	if typ == packet.TypeSealed {
		// An epoch-0 sealed datagram is a 0-RTT first flight, sealed
		// before the Accept delivered our CID: it rides the client's
		// proposed CID, which lives in the peer's ID space — a value
		// that can collide with an ID we minted for someone else — so
		// it routes by peer address exactly like the Connect it rides
		// with. Everything else carries our CID.
		if len(dgram) > 1 && dgram[1] == uint8(qcrypto.Epoch0RTT) {
			return sh.byPeer[peerKey{normalize(from), cid}], false, false
		}
		return sh.byID[cid], false, false
	}
	if typ != packet.TypeConnect {
		// Data-plane route: the header's connection ID is ours.
		return sh.byID[cid], false, false
	}
	// Handshake route: the initiator cannot stamp our ID yet.
	from = normalize(from)
	key := peerKey{from, cid}
	if c, ok := sh.byPeer[key]; ok {
		return c, false, false
	}
	return sh.admitLocked(from, cid, dgram)
}

// allocIDLocked returns a connection ID unused on this endpoint. On a
// sharded endpoint the ID's top bits name this shard (see
// packet.CIDShard), which is what lets any shard route a stray frame to
// its owner without a shared table; shards only ever mint inside their
// own prefix, so IDs are unique across the whole reuseport group.
// Callers hold sh.mu.
func (sh *shard) allocIDLocked() uint32 {
	for {
		seq := sh.nextID
		sh.nextID++
		if sh.nextID == 0 {
			sh.nextID = 1
		}
		id := seq
		if sh.inbox != nil {
			id = packet.CIDForShard(sh.idx, seq)
		}
		if _, busy := sh.byID[id]; !busy && id != 0 {
			return id
		}
	}
}

// service drives one connection: enqueue due frames on the shared send
// scheduler, wake readers whose streams became readable, then
// reschedule its deadline in the shared timer heap. It is called after
// every event touching the connection (inbound frames, application
// write, timer expiry) and reports whether it enqueued frames, which
// the caller owes a flushPending for once its round completes.
//
// It runs four stages: pollSeal, noteEstablished and deliverStreams under
// c.mu, then rearm under sh.mu. Nothing touches the socket while a
// connection lock is held (the queue-bounding flush runs after c.mu is
// released), so a slow wire never stalls another connection's delivery
// or timers, and no shard or endpoint lock nests inside c.mu.
func (sh *shard) service(c *Conn) (produced bool) {
	lingering := c.lingering.Load()
	c.mu.Lock()
	now := sh.now()
	produced = sh.pollSeal(c, now)
	st := c.inner.State()
	resume := sh.noteEstablished(c, st)
	deliverStreams(c, lingering)
	wakeAt, wok := c.inner.NextWake(now)
	c.mu.Unlock()
	if resume != nil {
		sh.ep.storeResumption(c.peer, resume)
	}
	if produced {
		// Off the connection lock now: bound the queue mid-round. The
		// full flush still belongs to the caller's round boundary.
		sh.tx.flushIfFull()
	}
	sh.rearm(c, st, lingering, wakeAt, wok)
	return produced
}

// pollSeal enqueues every frame the connection has due at now and
// reports whether there was one. The burst is built back to back in one
// pooled bufpool.Size buffer: each frame is polled in where the last one
// ended and, when the connection has keys, sealed where it lies. Each
// run of equal-size frames goes to the scheduler as one segment train
// (see burst). Before the peer's address is validated, each frame is
// held to the amplification cap. Callers hold c.mu.
func (sh *shard) pollSeal(c *Conn, now time.Duration) (produced bool) {
	// Keys are installed by Start and HandleFrame, never by a poll. With
	// keys, each frame is built behind room for the sealed datagram's
	// prefix and sealed where it lies.
	sess := c.inner.CryptoSession()
	pre := 0
	if sess != nil {
		pre = packet.SealedHeaderLen
	}
	b := burst{sh: sh, peer: c.peer, buf: bufpool.Get()}
	for {
		if b.segs == gsoMaxSegments || b.n+b.segSize > gsoMaxTrainBytes {
			b.next(nil)
		}
		at := b.n
		frame, ok := c.inner.PollFrameAppend(now, b.buf[:at+pre])
		if !ok {
			break
		}
		if sess != nil {
			if packet.Cleartext(packet.Type(frame[at+pre] & 0x0f)) {
				frame = append(frame[:at], frame[at+pre:]...)
			} else {
				sealed, err := sess.SealAppend(frame[:at], c.inner.RemoteID(), frame[at+pre:])
				if err != nil {
					sh.sealFails.Add(1)
					continue
				}
				frame = sealed
			}
		}
		wire := frame[at:]
		if !c.validated.Load() {
			// Pre-validation anti-amplification: withhold any frame that
			// would push bytes-sent past 3x bytes-received from this
			// unproven address. The state machine has already advanced
			// (control retransmissions re-arm their timer), so dropping
			// the frame here never spins; a capped Accept goes out on a
			// later retransmission once more Connect bytes arrive. The
			// cap charges wire bytes — what the victim's link would see —
			// so sealed frames count their AEAD overhead too.
			if c.ampTx.Load()+int64(len(wire)) > 3*c.ampRx.Load() {
				sh.ampCapped.Add(1)
				continue
			}
			c.ampTx.Add(int64(len(wire)))
		}
		produced = true
		b.add(wire, &frame[0] == &b.buf[0])
	}
	b.next(nil)
	bufpool.Put(b.buf)
	return produced
}

// burst is the run of frames pollSeal is building for one peer: b.n
// bytes at the front of buf, segs frames of segSize bytes, the last
// possibly shorter. A withheld frame or one that fails to seal is never
// added, so the next poll overwrites it and the run has no gap.
type burst struct {
	sh      *shard
	peer    netip.AddrPort
	buf     []byte // a pooled bufpool.Size buffer, owned until enqueued
	n       int
	segSize int
	segs    int
}

// add takes the frame just polled to b.buf[b.n:], or elsewhere when it
// did not fit (inPlace false: the poll or the seal had to grow past the
// buffer). An equal or shorter frame in place joins the run, and a
// shorter one closes it (the kernel's short-tail rule); any other frame
// starts the next run.
func (b *burst) add(wire []byte, inPlace bool) {
	if !inPlace || (b.segs > 0 && len(wire) > b.segSize) {
		b.next(wire)
		return
	}
	if b.segs == 0 {
		b.segSize = len(wire)
	}
	b.n += len(wire)
	b.segs++
	if len(wire) < b.segSize {
		b.next(nil)
	}
}

// next hands the run to the scheduler and starts the next one with
// first (nil for none) at the front of a buffer b owns. A train keeps
// its buffer and b takes a fresh one; a lone frame that fits a chunk
// (an ack, a control frame) is copied into one, so the buffer serves the
// next run instead of idling in the send queue.
func (b *burst) next(first []byte) {
	var train []byte
	switch {
	case b.segs == 0:
	case b.segs == 1 && b.n <= bufpool.ChunkSize:
		ch := bufpool.GetChunk()
		b.sh.tx.enqueue(b.peer, ch[:copy(ch, b.buf[:b.n])], 0)
	default:
		train, b.buf = b.buf[:b.n], bufpool.Get()
	}
	segSize := b.segSize
	// first may lie in the train: copy it before the scheduler owns that.
	b.n = copy(b.buf, first)
	b.segSize, b.segs = b.n, min(b.n, 1)
	if train != nil {
		b.sh.tx.enqueue(b.peer, train, segSize)
	}
}

// noteEstablished does the handshake-completion bookkeeping, exactly once
// per connection, the first time service finds it Established (or
// already Closing): it releases Dial's wait and, with crypto, counts
// tickets and 0-RTT on the responder. On the initiator it returns the
// next connection's resumption state, which the caller stores in the
// endpoint's cache after releasing c.mu. Callers hold c.mu.
func (sh *shard) noteEstablished(c *Conn, st qtp.State) (resume *qcrypto.Resumption) {
	if st != qtp.StateEstablished && st != qtp.StateClosing {
		return nil
	}
	c.estOnce.Do(func() {
		close(c.established)
		if info := c.inner.CryptoInfo(); info.Enabled {
			if c.initiator {
				resume = c.inner.TakeResumption()
			} else {
				if info.TicketIssued {
					sh.ticketsIssued.Add(1)
				}
				if info.EarlyOffered && info.EarlyAccepted {
					sh.zeroRTTAccepted.Add(1)
				} else if info.EarlyOffered {
					sh.zeroRTTRejected.Add(1)
				}
			}
		}
	})
	return resume
}

// deliverStreams queues the inbound streams the peer's frames announced
// for AcceptStream, then wakes the readers whose streams became
// readable — or, on a lingering connection, nobody reads any more and it
// pops and recycles instead. Callers hold c.mu.
func deliverStreams(c *Conn, lingering bool) {
	for {
		id, ok := c.inner.AcceptStreamID()
		if !ok {
			break
		}
		sst, _ := c.inner.StreamStats(id)
		select {
		case c.acceptStreams <- newNetStream(c, id, sst.Mode):
		default:
			// Cannot happen: the queue is sized at the stream cap.
		}
	}
	if !lingering {
		c.wakeReaders()
		return
	}
	// Grace period after an application close: the state machine still
	// runs (acking retransmissions, answering Close) but nobody is
	// reading — pop and recycle, or the delivery bound would refuse the
	// tail the peer is waiting to have acknowledged.
	for {
		_, chunk, ok := c.inner.ReadAny()
		if !ok {
			return
		}
		bufpool.PutChunk(chunk)
	}
}

// rearm files the connection's next deadline in the shard's timer heap
// — kicking the loop when it is earlier than the one the loop sleeps
// on — or tears the connection down: once the protocol closed it, or
// once a lingering connection's grace ran out. The grace deadline rides
// the heap like any protocol deadline, so a silent peer cannot pin the
// entry. Callers hold no lock.
func (sh *shard) rearm(c *Conn, st qtp.State, lingering bool, wakeAt time.Duration, wok bool) {
	if st == qtp.StateClosed {
		c.teardown()
		return
	}
	graceExpired := false
	sh.mu.Lock()
	if !c.gone {
		if lingering {
			if sh.now() >= c.graceUntil {
				graceExpired = true
			} else if !wok || wakeAt > c.graceUntil {
				wakeAt, wok = c.graceUntil, true
			}
		}
		if !graceExpired {
			if wok {
				sh.timers.set(c, wakeAt)
				if wakeAt < sh.sleepUntil {
					sh.kick()
				}
			} else {
				sh.timers.remove(c)
			}
		}
	}
	sh.mu.Unlock()
	if graceExpired {
		c.teardown()
	}
}

// retireConn is the application-close path. A connection whose protocol
// exchange already finished (or never started) is torn down at once. One
// closed mid-exchange — typically a receiver closed the moment
// Finished() reported true, while the sender's final ack round and Close
// are still in flight — instead enters a TIME_WAIT-style grace: the
// application-facing side closes immediately, but the demux entry stays
// routable so the state machine can ack the stream tail and answer the
// peer's Close, rather than leaving the sender retransmitting into
// NoRoute until its retries give up. The entry is reclaimed the moment
// the protocol close completes, or after closeGrace if the peer goes
// silent.
func (sh *shard) retireConn(c *Conn) {
	c.mu.Lock()
	st := c.inner.State()
	c.mu.Unlock()
	// Linger only where the in-flight exchange benefits: a responder
	// (receiver) still acking the tail or answering Close, or either
	// side already in the close handshake. A failed handshake
	// (Connecting) or a sender aborting mid-stream tears down at once —
	// a lingering aborted sender would keep transmitting its backlog,
	// and a dead Dial would leave ghost entries retrying Connect.
	needsGrace := st == qtp.StateClosing || (st == qtp.StateEstablished && !c.initiator)
	if !needsGrace {
		c.teardown()
		return
	}
	sh.mu.Lock()
	if c.lingering.Load() {
		sh.mu.Unlock()
		return // second Close during the grace: nothing more to do
	}
	if sh.closed || c.gone {
		sh.mu.Unlock()
		c.teardown()
		return
	}
	c.graceUntil = sh.now() + closeGrace
	c.lingering.Store(true)
	sh.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closedCh) })
	// Service immediately: flush any pending ack/close frames and arm
	// the grace deadline on the timer heap.
	sh.serviceFlush(c)
}

// kick ends the loop's park early so it re-reads the heap's earliest
// deadline (or its inbox): the parked read comes back empty and the
// round it starts re-arms. The loop is as good as awake from here on,
// so later callers need not kick again. Callers hold sh.mu (see arm).
func (sh *shard) kick() {
	sh.bio.wake()
	sh.sleepUntil = awake
}

// removeConn unlinks a connection from the demux tables and the timer
// heap. Idempotent: once gone, a second call must not touch the tables,
// whose entries may since belong to a successor connection.
func (sh *shard) removeConn(c *Conn) {
	sh.mu.Lock()
	if !c.gone {
		delete(sh.byID, c.localID)
		// Only responders own a handshake-route entry; a dialed conn whose
		// (peer, id) pair happens to collide must not evict it.
		key := peerKey{c.peer, c.remoteID}
		if cur, ok := sh.byPeer[key]; ok && cur == c {
			delete(sh.byPeer, key)
		}
		sh.timers.remove(c)
		c.gone = true
		close(c.reaped)
	}
	sh.mu.Unlock()
}

// normalize strips the IPv4-in-IPv6 mapping so addresses read from a
// dual-stack socket compare equal to their resolved form.
func normalize(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}
