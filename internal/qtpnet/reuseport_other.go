//go:build !linux

package qtpnet

import (
	"errors"
	"net"
)

// reusePortSupported reports that this platform has no SO_REUSEPORT
// plumbing: EndpointConfig.Shards resolves to one plain socket.
func reusePortSupported() bool { return false }

// listenReusePort is unreachable on platforms without reuseport support
// (EndpointConfig.resolved clamps the shard count to 1 first); it exists
// so the multi-shard bind path compiles everywhere.
func listenReusePort(addr string) (*net.UDPConn, error) {
	return nil, errors.New("qtpnet: SO_REUSEPORT not supported on this platform")
}
