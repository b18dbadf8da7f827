//go:build linux && (amd64 || arm64)

package qtpnet

import (
	"net"
	"testing"
	"time"
)

// TestMmsgIOAllocationFree holds the linux batch path to zero heap
// allocations per call over a real loopback socket pair: readBatch and
// writeBatch hand the RawConn the callbacks bound at construction, so
// neither a closure nor the variables it captures is allocated per
// syscall.
func TestMmsgIOAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	listen := func() *net.UDPConn {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	src, dst := listen(), listen()
	w := newPlatformBatchIO(udpSock{pc: src}, rxBatch, DataPathAuto, &pathCaps{})
	r := newPlatformBatchIO(udpSock{pc: dst}, rxBatch, DataPathAuto, &pathCaps{})
	if w == nil || r == nil {
		t.Fatal("mmsg path unavailable on linux")
	}
	// A read that finds nothing fails the test instead of hanging it.
	dst.SetReadDeadline(time.Now().Add(10 * time.Second))

	// One small datagram per call: the runs (plus AllocsPerRun's warm-up
	// call) queue well under the receive buffer, so every one arrives.
	const runs = 100
	out := []ioMsg{{buf: make([]byte, 64), n: 64, addr: dst.LocalAddr().(*net.UDPAddr).AddrPort()}}
	if a := testing.AllocsPerRun(runs, func() {
		if n, err := w.writeBatch(out); n != 1 || err != nil {
			t.Fatalf("writeBatch = %d, %v", n, err)
		}
	}); a != 0 {
		t.Errorf("writeBatch: %v allocations a call, want 0", a)
	}

	in := []ioMsg{{buf: make([]byte, 2048)}}
	from := src.LocalAddr().(*net.UDPAddr).AddrPort()
	if a := testing.AllocsPerRun(runs, func() {
		n, err := r.readBatch(in, true)
		if n != 1 || err != nil {
			t.Fatalf("readBatch = %d, %v", n, err)
		}
		if in[0].n != 64 || in[0].addr != from {
			t.Fatalf("read %d bytes from %v, want 64 from %v", in[0].n, in[0].addr, from)
		}
	}); a != 0 {
		t.Errorf("readBatch: %v allocations a call, want 0", a)
	}
}
