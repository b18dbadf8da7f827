package qtpnet

import (
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
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

// DataPath is a ceiling on the data-path ladder (docs/DATAPATH.md):
// the endpoint climbs as high as the platform probes in, but never
// above the ceiling. The rungs are ordered, so one value replaces a
// bool per rung. Every rung moves the same bytes; tests pin a lower one
// to prove it, and it is the escape hatch should a platform's upper
// rung misbehave. It implements flag.Value for the tools' -datapath.
type DataPath uint8

const (
	// DataPathAuto, the zero value, is no ceiling: GSO/GRO over
	// recvmmsg/sendmmsg where the kernel has them.
	DataPathAuto DataPath = iota
	// DataPathMmsg stops below segment offload: recvmmsg/sendmmsg,
	// UDP_SEGMENT/UDP_GRO never probed.
	DataPathMmsg
	// DataPathPortable is the floor every platform has: one datagram per
	// syscall through the standard library.
	DataPathPortable
)

var dataPathNames = [...]string{"auto", "mmsg", "portable"}

func (d DataPath) String() string {
	if int(d) < len(dataPathNames) {
		return dataPathNames[d]
	}
	return fmt.Sprintf("DataPath(%d)", uint8(d))
}

// Set parses one of auto, mmsg, portable.
func (d *DataPath) Set(s string) error {
	for i, name := range dataPathNames {
		if s == name {
			*d = DataPath(i)
			return nil
		}
	}
	return fmt.Errorf("unknown data path %q (want auto, mmsg or portable)", s)
}

// batchIO is the seam between a shard's loop and the socket.
// The linux implementation moves whole batches per syscall with
// recvmmsg/sendmmsg — and, where the kernel supports it, whole segment
// trains per datagram with UDP_SEGMENT/UDP_GRO; every other platform
// (and DataPathPortable) falls back to one datagram per call, so the
// endpoint's logic is identical everywhere and tests can force either
// path.
type batchIO interface {
	// readBatch fills ms[i].n, ms[i].addr and ms[i].segSize for each
	// datagram received into ms[i].buf and returns how many messages
	// were filled, blocking until there is one or the socket's read
	// deadline passes (os.ErrDeadlineExceeded). Without park an empty
	// socket is an empty batch at once (singleIO cannot, and waits).
	readBatch(ms []ioMsg, park bool) (int, error)
	batchWriter
}

// batchWriter is the slice of batchIO the scheduler needs; tests
// substitute fakes.
type batchWriter interface {
	// writeBatch sends ms[i].buf[:ms[i].n] to ms[i].addr, in order, and
	// returns how many messages the kernel accepted. err describes the
	// failure of message ms[n] (or the batch, when n == 0); messages
	// past n were not attempted.
	writeBatch(ms []ioMsg) (int, error)
}

// pathCaps is what a socket's data path probed in at bind, returned by
// newBatchIO beside the batchIO and shared from then on: the socket
// implementation writes it, the scheduler and the endpoint's accessors
// read it. The zero value is the portable rung.
type pathCaps struct {
	batch bool // recvmmsg/sendmmsg
	gro   bool // UDP_GRO on: readBatch may return merged super-datagrams

	// gsoMaxSegs is the longest segment train writeBatch accepts, 0 when
	// segment offload is unavailable. The scheduler re-reads it before
	// every flush because the writer clears it if the kernel refuses a
	// train the probe promised; gsoFallbacks counts those refusals, each
	// transparently re-sent segment-by-segment.
	gsoMaxSegs   atomic.Int32
	gsoFallbacks atomic.Uint64
}

// newBatchIO picks the best implementation for the socket at or below
// the ceiling.
func newBatchIO(pc *net.UDPConn, maxBatch int, ceiling DataPath) (batchIO, *pathCaps) {
	caps := &pathCaps{}
	if ceiling < DataPathPortable {
		if bio := newPlatformBatchIO(pc, maxBatch, ceiling, caps); bio != nil {
			return bio, caps
		}
	}
	return singleIO{pc}, caps
}

// singleIO is the portable fallback: one syscall per datagram through
// the standard library, semantically identical to the batch path with
// every batch of size one. It never enables GRO on the socket, so
// reads are always exactly one wire datagram.
type singleIO struct {
	pc *net.UDPConn
}

// readBatch ignores park: the standard library has no non-blocking
// read, so an attempt on an empty socket waits out the read deadline.
func (s singleIO) readBatch(ms []ioMsg, _ bool) (int, error) {
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
