package qtpnet

import (
	"net"
	"net/netip"
)

// rxBatch is the receive ring size: the most datagrams one readBatch
// call (one recvmmsg syscall) can return.
const rxBatch = 32

// Segment-offload limits, shared by the scheduler's train coalescing
// and the linux writer. The kernel refuses GSO sends of more than
// UDP_MAX_SEGMENTS (64) segments, and the whole super-datagram must
// still fit one UDP payload; gsoMaxTrainBytes stays under both the
// 65,507-byte IPv4 ceiling and the pooled 64 KiB buffer a train is
// built into.
const (
	gsoMaxSegments   = 64
	gsoMaxTrainBytes = 65000
)

// ioMsg is one datagram in a batch. On receive, buf is a full-capacity
// ring buffer and the reader sets n (datagram length) and addr
// (source); segSize is the kernel-reported GRO segment size when the
// read was a merged super-datagram (0 otherwise — the common case).
// On send, buf holds exactly the frame (n == len(buf)) and addr is the
// destination; segSize > 0 marks a segment train the writer should
// hand to the kernel as one UDP_SEGMENT-tagged super-datagram of
// segSize-byte slices (the last may be shorter).
type ioMsg struct {
	buf     []byte
	n       int
	addr    netip.AddrPort
	segSize int

	// gapNs is the TFRC inter-packet spacing this message should keep
	// from its predecessor on the same flow, set by the scheduler at
	// enqueue time. Zero means "send as soon as possible" (control
	// frames, non-paced traffic). For a segment train it is the sum of
	// the member gaps.
	gapNs uint32
	// txTime, when non-zero and the writer supports SO_TXTIME, is the
	// CLOCK_MONOTONIC nanosecond instant the kernel should release the
	// datagram at (stamped by the scheduler from gapNs at flush time).
	// Writers without TXTIME support ignore it and send immediately.
	txTime uint64
}

// wireCount returns how many on-the-wire datagrams m represents: one,
// unless it is a segment train, in which case every segment counts.
// The endpoint's DatagramsIn/Out counters are wire datagrams, so the
// dgrams-per-syscall trend lines stay comparable across the plain,
// mmsg and GSO/GRO paths.
func wireCount(m ioMsg) uint64 {
	if m.segSize > 0 && m.n > m.segSize {
		return uint64((m.n + m.segSize - 1) / m.segSize)
	}
	return 1
}

// batchIO is the seam between the endpoint's loops and the socket.
// The linux implementation moves whole batches per syscall with
// recvmmsg/sendmmsg — and, where the kernel supports it, whole segment
// trains per datagram with UDP_SEGMENT/UDP_GRO; every other platform
// (and DisableBatchIO) falls back to one datagram per call, so the
// endpoint's logic is identical everywhere and tests can force either
// path.
type batchIO interface {
	// readBatch blocks until at least one datagram is available, fills
	// ms[i].n, ms[i].addr and ms[i].segSize for each datagram received
	// into ms[i].buf, and returns how many messages were filled.
	readBatch(ms []ioMsg) (int, error)
	// writeBatch sends ms[i].buf[:ms[i].n] to ms[i].addr, in order, and
	// returns how many messages the kernel accepted. err describes the
	// failure of message ms[n] (or the batch, when n == 0); messages
	// past n were not attempted.
	writeBatch(ms []ioMsg) (int, error)
}

// segmentOffloader is the optional batchIO extension for UDP
// generic segmentation/receive offload. The scheduler asks
// gsoMaxSegs before every flush — capability can flip off at any
// send if the kernel refuses a train — and builds segment trains
// only while it answers > 1.
type segmentOffloader interface {
	// gsoMaxSegs returns the largest segment train writeBatch will
	// accept, or 0 when segmentation offload is unavailable (never
	// probed, disabled, or tripped off by a mid-life send failure).
	gsoMaxSegs() int
	// groOn reports whether UDP_GRO is enabled on the socket, i.e.
	// whether readBatch may return merged super-datagrams.
	groOn() bool
	// gsoFallbacks counts trains the kernel refused at send time;
	// each was transparently re-sent segment-by-segment.
	gsoFallbacks() uint64
}

// txTimeWriter is the optional batchIO extension for SO_TXTIME pacing
// offload: the scheduler stamps ioMsg.txTime release instants (computed
// from TFRC inter-packet gaps against the writer's clock) and the
// writer attaches them as SCM_TXTIME cmsgs, letting the kernel's fq/etf
// qdisc release each datagram on schedule instead of the whole flush
// leaving as one micro-burst.
type txTimeWriter interface {
	// txTimeOn reports whether SO_TXTIME is active on the socket (the
	// setsockopt probe succeeded).
	txTimeOn() bool
	// txTimeSendCount counts datagrams sent with a TXTIME stamp.
	txTimeSendCount() uint64
	// nowNs returns the writer's pacing clock (CLOCK_MONOTONIC ns),
	// the time base txTime stamps must be computed against.
	nowNs() uint64
}

// batchOpts collects the per-socket data-path knobs: batching and
// segment offload can each be disabled, by config or environment,
// without touching the rung below.
type batchOpts struct {
	noBatch bool // force the portable single-datagram fallback
	noGSO   bool // never probe UDP_SEGMENT/UDP_GRO
}

// newBatchIO picks the best available implementation for the socket.
func newBatchIO(pc *net.UDPConn, maxBatch int, o batchOpts) batchIO {
	if !o.noBatch {
		if bio := newPlatformBatchIO(pc, maxBatch, o); bio != nil {
			return bio
		}
	}
	return singleIO{pc}
}

// singleIO is the portable fallback: one syscall per datagram through
// the standard library, semantically identical to the batch path with
// every batch of size one. It never enables GRO on the socket, so
// reads are always exactly one wire datagram.
type singleIO struct {
	pc *net.UDPConn
}

func (s singleIO) readBatch(ms []ioMsg) (int, error) {
	n, addr, err := s.pc.ReadFromUDPAddrPort(ms[0].buf)
	if err != nil {
		return 0, err
	}
	ms[0].n, ms[0].addr, ms[0].segSize = n, addr, 0
	return 1, nil
}

func (s singleIO) writeBatch(ms []ioMsg) (int, error) {
	// One datagram per call — not a loop — so the caller's syscall
	// accounting (SendBatches, AvgSendBatch) stays truthful on the
	// fallback path: every batch really is of size one. The scheduler's
	// flush loop already re-calls until the batch is drained.
	if _, err := s.pc.WriteToUDPAddrPort(ms[0].buf[:ms[0].n], ms[0].addr); err != nil {
		return 0, err
	}
	return 1, nil
}
