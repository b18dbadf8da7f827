//go:build linux && (amd64 || arm64)

package qtpnet

import (
	"net"
	"net/netip"
	"os"
	"syscall"
	"unsafe"
)

// mmsgIO moves datagram batches with one syscall each way: recvmmsg on
// the read side, sendmmsg on the write side. The standard library (and
// x/net) reach the same syscalls through golang.org/x/net/ipv4's
// ReadBatch/WriteBatch; this implementation goes straight to the
// syscall layer so the repository carries no external dependency.
//
// Where the kernel supports it, mmsgIO also rides UDP segmentation
// offload one rung further: a send message with segSize set travels as
// one UDP_SEGMENT-tagged super-datagram the kernel (or NIC) splits
// into wire packets, and with UDP_GRO enabled the receive side reads
// back merged super-datagrams whose segment size arrives in a cmsg.
// Capability is probed once at construction (getsockopt UDP_SEGMENT —
// old kernels answer ENOPROTOOPT); a kernel that accepts the probe but
// refuses a real send (EIO from a driver without the feature) trips
// the capability off and the refused train is transparently re-sent
// segment-by-segment, so offload can only ever cost one fallback.
//
// The socket stays in the runtime's non-blocking mode and is driven
// through syscall.RawConn, so reads park on the netpoller exactly like
// net.UDPConn reads do — one goroutine blocked in readBatch costs the
// same as one blocked in ReadFromUDPAddrPort, but wakes with up to a
// whole ring of datagrams, each of which may itself be a GRO merge of
// up to 64 wire packets — and honour the read deadline udpSock arms,
// which is the shard loop's timer.
type mmsgIO struct {
	udpSock
	rc   syscall.RawConn
	v6   bool      // AF_INET6 socket: v4 destinations need mapping
	caps *pathCaps // what the probes below found; shared with the endpoint

	// Receive-side scratch, reused every syscall.
	rhdr []mmsghdr
	riov []syscall.Iovec
	rsa  []syscall.RawSockaddrInet6
	rctl []ctlBuf

	// Send-side scratch, sized for the larger of a message batch and a
	// segment train (the per-segment fallback resend path).
	whdr []mmsghdr
	wiov []syscall.Iovec
	wsa  []syscall.RawSockaddrInet6
	wctl []ctlBuf

	// The RawConn callbacks, m.recvmmsg and m.sendmmsg bound once so a
	// call allocates no closure, and the inputs and results they carry:
	// rn/rpark/rgot/rerr only on the shard's loop, wfrom/wn/wsent/werr
	// only under the scheduler's flush token.
	recv, send func(fd uintptr) bool
	rn, rgot   int
	rpark      bool
	rerr       syscall.Errno
	wfrom, wn  int
	wsent      int
	werr       syscall.Errno
}

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-reported
// datagram length. The trailing padding matches C struct layout on the
// 64-bit ABIs this file builds for.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// ctlBuf holds one message's ancillary data: the UDP_SEGMENT cmsg on
// send, the UDP_GRO cmsg on receive. The zero-width uint64 field
// 8-byte-aligns the buffer, which the kernel's cmsg layout requires.
type ctlBuf struct {
	_ [0]uint64
	b [64]byte
}

const (
	sizeofSA6 = uint32(unsafe.Sizeof(syscall.RawSockaddrInet6{}))

	// udpSegment/udpGRO are the SOL_UDP socket options behind linux
	// UDP generic segmentation/receive offload (kernel 4.18 / 5.0);
	// the syscall package predates both.
	udpSegment = 103
	udpGRO     = 104

	// gsoCmsgSpace is CMSG_SPACE(sizeof(uint16)): one cmsghdr plus the
	// segment size, padded to the 8-byte cmsg alignment.
	gsoCmsgSpace = syscall.SizeofCmsghdr + 8
)

// newPlatformBatchIO returns the mmsg implementation, or nil when the
// socket cannot be driven through a RawConn (forcing the fallback).
// Segment offload is probed here, once per socket: each socket — and
// therefore each shard of an Endpoint — carries its own
// independent GSO/GRO capability and fallback state.
func newPlatformBatchIO(sock udpSock, maxBatch int, ceiling DataPath, caps *pathCaps) batchIO {
	rc, err := sock.pc.SyscallConn()
	if err != nil {
		return nil
	}
	domain := syscall.AF_INET
	cerr := rc.Control(func(fd uintptr) {
		if d, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_DOMAIN); err == nil {
			domain = d
		}
	})
	if cerr != nil {
		return nil
	}
	wn := maxBatch
	if wn < gsoMaxSegments {
		wn = gsoMaxSegments
	}
	m := &mmsgIO{
		rc:   rc,
		v6:   domain == syscall.AF_INET6,
		caps: caps,
		rhdr: make([]mmsghdr, maxBatch),
		riov: make([]syscall.Iovec, maxBatch),
		rsa:  make([]syscall.RawSockaddrInet6, maxBatch),
		rctl: make([]ctlBuf, maxBatch),
		whdr: make([]mmsghdr, wn),
		wiov: make([]syscall.Iovec, wn),
		wsa:  make([]syscall.RawSockaddrInet6, wn),
		wctl: make([]ctlBuf, wn),
	}
	m.udpSock = sock
	m.recv, m.send = m.recvmmsg, m.sendmmsg
	caps.batch = true
	if ceiling < DataPathMmsg {
		m.probeOffload()
	}
	return m
}

// probeOffload detects UDP_SEGMENT support (a getsockopt that old
// kernels refuse, with no side effect either way) and enables UDP_GRO
// where available. GRO is only ever switched on here, after the mmsg
// path is committed: a socket read through the portable fallback must
// never return merged super-datagrams it cannot recognize.
func (m *mmsgIO) probeOffload() {
	m.rc.Control(func(fd uintptr) {
		if _, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment); err == nil {
			m.caps.gsoMaxSegs.Store(gsoMaxSegments)
		}
		if err := syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1); err == nil {
			m.caps.gro = true
		}
	})
}

func (m *mmsgIO) readBatch(ms []ioMsg, park bool) (int, error) {
	if !park {
		// The callback never waits on an attempt, but the poller refuses
		// a read under an expired deadline before it runs.
		m.attempt()
	}
	n := len(ms)
	if n > len(m.rhdr) {
		n = len(m.rhdr)
	}
	for i := 0; i < n; i++ {
		m.riov[i] = syscall.Iovec{Base: &ms[i].buf[0], Len: uint64(len(ms[i].buf))}
		m.rhdr[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.rsa[i])),
			Namelen: sizeofSA6,
			Iov:     &m.riov[i],
			Iovlen:  1,
		}}
		if m.caps.gro {
			m.rhdr[i].hdr.Control = &m.rctl[i].b[0]
			m.rhdr[i].hdr.SetControllen(len(m.rctl[i].b))
		}
	}
	m.rn, m.rpark, m.rgot, m.rerr = n, park, 0, 0
	if err := m.rc.Read(m.recv); err != nil {
		return readFailed(err)
	}
	if m.rerr != 0 {
		return 0, os.NewSyscallError("recvmmsg", m.rerr)
	}
	got := m.rgot
	for i := 0; i < got; i++ {
		ms[i].n = int(m.rhdr[i].n)
		ms[i].addr = saToAddrPort(&m.rsa[i])
		ms[i].segSize = 0
		if m.caps.gro {
			ms[i].segSize = parseGROSegSize(m.rctl[i].b[:m.rhdr[i].hdr.Controllen])
		}
	}
	return got, nil
}

// recvmmsg is readBatch's RawConn callback: one recvmmsg over
// m.rhdr[:m.rn] into m.rgot, or its errno into m.rerr.
func (m *mmsgIO) recvmmsg(fd uintptr) bool {
	r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&m.rhdr[0])), uintptr(m.rn), 0, 0, 0)
	if e == syscall.EAGAIN {
		return !m.rpark // not readable yet: park on the netpoller, or report the empty attempt
	}
	if e != 0 {
		m.rerr = e
	} else {
		m.rgot = int(r)
	}
	return true
}

// sendmmsg is the send side's RawConn callback: one sendmmsg over
// m.whdr[m.wfrom:m.wfrom+m.wn] into m.wsent, or its errno into m.werr.
func (m *mmsgIO) sendmmsg(fd uintptr) bool {
	r, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&m.whdr[m.wfrom])), uintptr(m.wn), 0, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	if e != 0 {
		m.werr = e
	} else {
		m.wsent = int(r)
	}
	return true
}

// writeMsgs sends m.whdr[from:from+n] with one sendmmsg, waiting out
// EAGAIN on the netpoller, and returns how many messages the kernel took
// and the call's errno.
func (m *mmsgIO) writeMsgs(from, n int) (int, syscall.Errno, error) {
	m.wfrom, m.wn, m.wsent, m.werr = from, n, 0, 0
	err := m.rc.Write(m.send)
	return m.wsent, m.werr, err
}

// parseGROSegSize walks a received control buffer for the UDP_GRO
// cmsg and returns the kernel-reported segment size, or 0 when the
// datagram arrived unmerged (no cmsg, or any malformed tail).
func parseGROSegSize(ctl []byte) int {
	for len(ctl) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctl[0]))
		if h.Len < syscall.SizeofCmsghdr || uint64(h.Len) > uint64(len(ctl)) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO &&
			h.Len >= syscall.SizeofCmsghdr+4 {
			return int(*(*int32)(unsafe.Pointer(&ctl[syscall.SizeofCmsghdr])))
		}
		next := cmsgAlign(int(h.Len))
		if next <= 0 || next > len(ctl) {
			return 0
		}
		ctl = ctl[next:]
	}
	return 0
}

// putGSOCmsg encodes the UDP_SEGMENT cmsg carrying a train's segment
// size into ctl, returning the control length to put on the msghdr.
func putGSOCmsg(ctl *ctlBuf, segSize uint16) int {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctl.b[0]))
	h.Len = syscall.SizeofCmsghdr + 2
	h.Level = syscall.IPPROTO_UDP
	h.Type = udpSegment
	*(*uint16)(unsafe.Pointer(&ctl.b[syscall.SizeofCmsghdr])) = segSize
	return gsoCmsgSpace
}

// cmsgAlign rounds a cmsg length up to the kernel's 8-byte boundary.
func cmsgAlign(n int) int { return (n + 7) &^ 7 }

// isGSORefusal classifies the errnos a kernel or driver answers a
// UDP_SEGMENT send it cannot perform: EIO from a device without the
// feature, EINVAL/EMSGSIZE from segmentation limits, EOPNOTSUPP from
// protocol layers that never learned it.
func isGSORefusal(e syscall.Errno) bool {
	return e == syscall.EIO || e == syscall.EINVAL ||
		e == syscall.EMSGSIZE || e == syscall.EOPNOTSUPP
}

func (m *mmsgIO) writeBatch(ms []ioMsg) (int, error) {
	n := len(ms)
	if n > len(m.whdr) {
		n = len(m.whdr)
	}
	gso := m.caps.gsoMaxSegs.Load() > 0
	prep := 0
	for prep < n {
		if ms[prep].segSize > 0 && ms[prep].n > ms[prep].segSize && !gso {
			// A train built before a mid-flush fallback tripped GSO off:
			// it goes out segment-by-segment, alone.
			if prep == 0 {
				return m.sendSegments(&ms[0])
			}
			break // send what we have; the train heads the next call
		}
		salen, ok := m.fillSA(&m.wsa[prep], ms[prep].addr)
		if !ok {
			if prep == 0 {
				return 0, os.NewSyscallError("sendmmsg", syscall.EAFNOSUPPORT)
			}
			break // send what we have; the bad address heads the next call
		}
		m.wiov[prep] = syscall.Iovec{Base: &ms[prep].buf[0], Len: uint64(ms[prep].n)}
		m.whdr[prep] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.wsa[prep])),
			Namelen: salen,
			Iov:     &m.wiov[prep],
			Iovlen:  1,
		}}
		if ms[prep].segSize > 0 && ms[prep].n > ms[prep].segSize {
			clen := putGSOCmsg(&m.wctl[prep], uint16(ms[prep].segSize))
			m.whdr[prep].hdr.Control = &m.wctl[prep].b[0]
			m.whdr[prep].hdr.SetControllen(clen)
		}
		prep++
	}
	sent, errno, err := m.writeMsgs(0, prep)
	if err != nil {
		return sent, err
	}
	if errno != 0 {
		// sendmmsg reports an errno only when the FIRST message of the
		// call failed. If that message was a segment train and the errno
		// is a segmentation refusal, the kernel accepted the probe but
		// cannot deliver: trip GSO off for this socket's lifetime and
		// re-send the refused train as plain datagrams.
		if ms[0].segSize > 0 && ms[0].n > ms[0].segSize && isGSORefusal(errno) {
			m.caps.gsoMaxSegs.Store(0)
			m.caps.gsoFallbacks.Add(1)
			return m.sendSegments(&ms[0])
		}
		return sent, os.NewSyscallError("sendmmsg", errno)
	}
	return sent, nil
}

// sendSegments delivers one segment train as individual sendmmsg
// datagrams — the per-send fallback when segmentation offload is
// unavailable or was just refused. It consumes exactly one message:
// (1, nil) on success, (0, err) when the segments could not be sent
// (the caller drops the train like any failed datagram; any segments
// already on the wire are indistinguishable from reordered loss).
func (m *mmsgIO) sendSegments(t *ioMsg) (int, error) {
	salen, ok := m.fillSA(&m.wsa[0], t.addr)
	if !ok {
		return 0, os.NewSyscallError("sendmmsg", syscall.EAFNOSUPPORT)
	}
	nseg := 0
	for off := 0; off < t.n; off += t.segSize {
		end := off + t.segSize
		if end > t.n {
			end = t.n
		}
		m.wiov[nseg] = syscall.Iovec{Base: &t.buf[off], Len: uint64(end - off)}
		m.whdr[nseg] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&m.wsa[0])),
			Namelen: salen,
			Iov:     &m.wiov[nseg],
			Iovlen:  1,
		}}
		nseg++
	}
	done := 0
	for done < nseg {
		sent, errno, err := m.writeMsgs(done, nseg-done)
		if err != nil {
			return 0, err
		}
		if errno != 0 {
			return 0, os.NewSyscallError("sendmmsg", errno)
		}
		if sent == 0 {
			return 0, os.NewSyscallError("sendmmsg", syscall.EIO)
		}
		done += sent
	}
	return 1, nil
}

// fillSA encodes a destination into sa, returning its length and
// whether the address is representable on this socket's family.
func (m *mmsgIO) fillSA(sa *syscall.RawSockaddrInet6, ap netip.AddrPort) (uint32, bool) {
	if m.v6 {
		// As16 yields the v4-mapped form for IPv4 addresses, which is
		// exactly what a dual-stack AF_INET6 socket wants.
		*sa = syscall.RawSockaddrInet6{
			Family: syscall.AF_INET6,
			Port:   htons(ap.Port()),
			Addr:   ap.Addr().As16(),
		}
		return sizeofSA6, true
	}
	a := ap.Addr().Unmap()
	if !a.Is4() {
		return 0, false // v6 destination on a v4 socket
	}
	sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
	*sa4 = syscall.RawSockaddrInet4{
		Family: syscall.AF_INET,
		Port:   htons(ap.Port()),
		Addr:   a.As4(),
	}
	return uint32(unsafe.Sizeof(*sa4)), true
}

// saToAddrPort decodes a kernel-written source address. Unknown
// families yield the zero AddrPort, which the demux discards.
func saToAddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), htons(sa4.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), htons(sa.Port))
	}
	return netip.AddrPort{}
}

// htons swaps a port between host and network byte order (the
// conversion is its own inverse).
func htons(p uint16) uint16 {
	b := [2]byte{byte(p >> 8), byte(p)}
	return *(*uint16)(unsafe.Pointer(&b[0]))
}

// socketBufSizes reports the effective SO_RCVBUF/SO_SNDBUF values as
// the kernel holds them (doubled request, or clamped by rmem_max), so
// callers can log whether the configured sizes actually took.
func socketBufSizes(pc *net.UDPConn) (rcv, snd int) {
	rc, err := pc.SyscallConn()
	if err != nil {
		return 0, 0
	}
	rc.Control(func(fd uintptr) {
		rcv, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	})
	return rcv, snd
}
