//go:build !linux || !(amd64 || arm64)

package qtpnet

import "net"

// newPlatformBatchIO reports that no batched syscall implementation
// (and therefore no segment offload) exists here; the endpoint uses the
// portable single-datagram fallback.
func newPlatformBatchIO(sock udpSock, maxBatch int, ceiling DataPath, caps *pathCaps) batchIO {
	return nil
}

// socketBufSizes reports the effective SO_RCVBUF/SO_SNDBUF values, for
// logging that the requested sizes actually took; unavailable here.
func socketBufSizes(pc *net.UDPConn) (rcv, snd int) {
	return 0, 0
}
