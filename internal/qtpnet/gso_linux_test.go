//go:build linux && (amd64 || arm64)

package qtpnet

import (
	"net"
	"syscall"
	"testing"
	"unsafe"
)

// TestGSOCmsgEncoding checks the hand-rolled ancillary-data plumbing:
// the UDP_SEGMENT cmsg a train is tagged with is well-formed, and the
// GRO parser recovers a segment size from a kernel-shaped control
// buffer — including ignoring unrelated cmsgs ahead of it.
func TestGSOCmsgEncoding(t *testing.T) {
	var ctl ctlBuf
	clen := putGSOCmsg(&ctl, 1400)
	if clen != gsoCmsgSpace {
		t.Fatalf("control length = %d, want %d", clen, gsoCmsgSpace)
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctl.b[0]))
	if h.Level != syscall.IPPROTO_UDP || h.Type != udpSegment {
		t.Fatalf("cmsg level/type = %d/%d, want %d/%d",
			h.Level, h.Type, syscall.IPPROTO_UDP, udpSegment)
	}
	if h.Len != syscall.SizeofCmsghdr+2 {
		t.Fatalf("cmsg len = %d, want %d", h.Len, syscall.SizeofCmsghdr+2)
	}
	if got := *(*uint16)(unsafe.Pointer(&ctl.b[syscall.SizeofCmsghdr])); got != 1400 {
		t.Fatalf("cmsg segment size = %d, want 1400", got)
	}

	// A GRO control buffer as the kernel writes it: int segment size.
	var gro ctlBuf
	gh := (*syscall.Cmsghdr)(unsafe.Pointer(&gro.b[0]))
	gh.Len = syscall.SizeofCmsghdr + 4
	gh.Level = syscall.IPPROTO_UDP
	gh.Type = udpGRO
	*(*int32)(unsafe.Pointer(&gro.b[syscall.SizeofCmsghdr])) = 1200
	if got := parseGROSegSize(gro.b[:cmsgAlign(int(gh.Len))]); got != 1200 {
		t.Fatalf("parseGROSegSize = %d, want 1200", got)
	}

	// An unrelated cmsg ahead of the GRO one must be skipped.
	var two ctlBuf
	h1 := (*syscall.Cmsghdr)(unsafe.Pointer(&two.b[0]))
	h1.Len = syscall.SizeofCmsghdr + 4
	h1.Level = syscall.SOL_SOCKET
	h1.Type = 1
	off := cmsgAlign(int(h1.Len))
	h2 := (*syscall.Cmsghdr)(unsafe.Pointer(&two.b[off]))
	h2.Len = syscall.SizeofCmsghdr + 4
	h2.Level = syscall.IPPROTO_UDP
	h2.Type = udpGRO
	*(*int32)(unsafe.Pointer(&two.b[off+syscall.SizeofCmsghdr])) = 900
	if got := parseGROSegSize(two.b[:off+cmsgAlign(int(h2.Len))]); got != 900 {
		t.Fatalf("parseGROSegSize with leading cmsg = %d, want 900", got)
	}

	// Garbage must parse to 0, never panic or mis-slice.
	if got := parseGROSegSize(two.b[:3]); got != 0 {
		t.Fatalf("parseGROSegSize on runt = %d, want 0", got)
	}
	var bad ctlBuf
	bh := (*syscall.Cmsghdr)(unsafe.Pointer(&bad.b[0]))
	bh.Len = 1 << 20 // lies about its length
	bh.Level = syscall.IPPROTO_UDP
	bh.Type = udpGRO
	if got := parseGROSegSize(bad.b[:]); got != 0 {
		t.Fatalf("parseGROSegSize on oversized cmsg = %d, want 0", got)
	}
}

// TestPlatformOffloadProbe exercises the real bind-time probe: on this
// kernel the mmsg implementation either detects UDP_SEGMENT (and then
// must also advertise a sane train ceiling) or reports fallback; under
// a DataPathMmsg ceiling the probe must never run, whatever the kernel
// offers.
func TestPlatformOffloadProbe(t *testing.T) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	caps := &pathCaps{}
	if newPlatformBatchIO(udpSock{pc: pc}, rxBatch, DataPathAuto, caps) == nil {
		t.Fatal("mmsg path unavailable on linux")
	}
	switch n := caps.gsoMaxSegs.Load(); n {
	case 0:
		t.Logf("gso probe decision: fallback (kernel without UDP_SEGMENT)")
	case gsoMaxSegments:
		t.Logf("gso probe decision: offload (max %d segs/train, gro=%v)", gsoMaxSegments, caps.gro)
	default:
		t.Fatalf("gsoMaxSegs = %d, want 0 or %d", n, gsoMaxSegments)
	}

	pc2, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	caps2 := &pathCaps{}
	newPlatformBatchIO(udpSock{pc: pc2}, rxBatch, DataPathMmsg, caps2)
	if !caps2.batch || caps2.gsoMaxSegs.Load() != 0 || caps2.gro {
		t.Fatalf("DataPathMmsg ceiling: batch=%v gso=%d gro=%v, want true 0 false",
			caps2.batch, caps2.gsoMaxSegs.Load(), caps2.gro)
	}
}
