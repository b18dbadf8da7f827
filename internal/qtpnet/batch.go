package qtpnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"time"
)

// rxBatch is the receive ring size: the most datagrams one readBatch
// call (one recvmmsg syscall) can return.
const rxBatch = 32

// Segment-train limits, shared by pollSeal, which builds the trains,
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
// On send, buf holds exactly the bytes to send (n == len(buf)) and addr
// is the destination; segSize > 0 with n > segSize marks a segment
// train of segSize-byte frames (the last may be shorter), which the
// writer hands the kernel as one UDP_SEGMENT-tagged super-datagram where
// the socket has segment offload, and as one datagram a frame elsewhere.
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

// batchIO is the seam between a shard's loop and the socket: it moves
// the datagrams, and it alone decides how the loop waits and what time
// it is. The linux implementation moves whole batches per syscall with
// recvmmsg/sendmmsg — and, where the kernel supports it, whole segment
// trains per datagram with UDP_SEGMENT/UDP_GRO; every other platform
// (and DataPathPortable) falls back to one datagram per call, so the
// endpoint's logic is identical everywhere and tests can force either
// path, or drive the loop on a clock of their own.
type batchIO interface {
	// readBatch fills ms[i].n, ms[i].addr and ms[i].segSize for each
	// datagram received into ms[i].buf and returns how many messages
	// were filled. With park it blocks until there is one or the park
	// ends — park's deadline passes or wake lands — which is an empty
	// batch, not an error. Without park it is an attempt: an empty
	// socket is an empty batch at once (singleIO cannot tell, and waits
	// out attemptPark), whatever an earlier park or wake left armed.
	readBatch(ms []ioMsg, park bool) (int, error)
	// now is the shard's protocol clock, shared by every connection it
	// serves; park deadlines are instants on it.
	now() time.Duration
	// park arms the deadline that ends the next parked read: until on
	// now's clock, math.MaxInt64 for none. The shard calls park and wake
	// under one lock, so a wake is never overwritten by the park it
	// cancels; readBatch itself arms nothing a wake could be lost under.
	park(until time.Duration)
	// wake ends the current park, or the next one if no read is parked;
	// only the next park re-arms.
	wake()
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
// the ceiling. The protocol clock counts from now.
func newBatchIO(pc *net.UDPConn, maxBatch int, ceiling DataPath) (batchIO, *pathCaps) {
	caps := &pathCaps{}
	sock := udpSock{pc: pc, epoch: time.Now()}
	if ceiling < DataPathPortable {
		if bio := newPlatformBatchIO(sock, maxBatch, ceiling, caps); bio != nil {
			return bio, caps
		}
	}
	return singleIO{sock}, caps
}

// attemptPark is the read deadline of an attempt: recvmmsg never waits
// for it, the portable rung does, so it is the shortest that has not
// already passed when the read reaches the socket (one poller tick on an
// empty one).
const attemptPark = 20 * time.Microsecond

// udpSock is what the socket-backed batchIO implementations share: the
// socket, whose read deadline is the shard loop's one timer, and the
// wall-clock instant the protocol clock counts from. It is the only code
// that sets a read deadline.
type udpSock struct {
	pc    *net.UDPConn
	epoch time.Time
}

func (s udpSock) now() time.Duration { return time.Since(s.epoch) }

func (s udpSock) park(until time.Duration) {
	var deadline time.Time
	if until != math.MaxInt64 {
		deadline = s.epoch.Add(until)
	}
	_ = s.pc.SetReadDeadline(deadline) // refused only by a closed socket: the read reports it
}

// wake moves the read deadline into the past: a parked read fails on it
// at once, and so does the next one until park re-arms.
func (s udpSock) wake() { _ = s.pc.SetReadDeadline(time.Unix(1, 0)) }

// attempt arms the deadline of a read that must not park, past whatever
// an earlier park or wake left expired. Nobody wakes a loop that is not
// parked, so the deadline is the loop's alone here.
func (s udpSock) attempt() { _ = s.pc.SetReadDeadline(time.Now().Add(attemptPark)) }

// readFailed is what readBatch returns for a read that failed with err:
// an empty batch when a park's deadline or a wake ended it.
func readFailed(err error) (int, error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return 0, nil
	}
	return 0, err
}

// singleIO is the portable fallback: one syscall per datagram through
// the standard library, semantically identical to the batch path with
// every batch of size one. It never enables GRO on the socket, so
// reads are always exactly one wire datagram.
type singleIO struct{ udpSock }

// readBatch's attempt waits out attemptPark: the standard library has
// no non-blocking read.
func (s singleIO) readBatch(ms []ioMsg, park bool) (int, error) {
	if !park {
		s.attempt()
	}
	n, addr, err := s.pc.ReadFromUDPAddrPort(ms[0].buf)
	if err != nil {
		return readFailed(err)
	}
	ms[0].n, ms[0].addr, ms[0].segSize = n, addr, 0
	return 1, nil
}

// writeBatch sends one message a call, a segment train as its
// segments one datagram each; the scheduler's flush loop re-calls until
// the batch is drained, and counts a syscall per datagram on this rung.
// A train that fails part way is dropped whole, like sendSegments'.
func (s singleIO) writeBatch(ms []ioMsg) (int, error) {
	m := &ms[0]
	seg := m.n
	if m.segSize > 0 {
		seg = m.segSize
	}
	for off := 0; off < m.n; off += seg {
		if _, err := s.pc.WriteToUDPAddrPort(m.buf[off:min(off+seg, m.n)], m.addr); err != nil {
			return 0, err
		}
	}
	return 1, nil
}
