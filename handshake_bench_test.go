package repro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qtpnet"
)

// BenchmarkHandshakeChurn measures the endpoint's sustained handshake
// throughput — the million-user front-door number: one op is a full
// connection lifecycle (Connect/Accept/Confirm, zero-data close
// handshake, teardown) against an accepting server, with 8 dialers
// churning concurrently from their own sockets. Tokens are off, so this
// is the unhardened fast path; the handshakes/sec metric is the
// benchgate trend guard proving the hardening hooks (stateless
// admission parse, amplification accounting) stay off the hot path's
// back when not engaged.
func BenchmarkHandshakeChurn(b *testing.B) {
	const workers = 8

	// Plaintext handshakes: the committed hs_per_sec baseline predates
	// transport encryption, and an X25519 exchange per op would swamp the
	// admission-path cost this bench trend-guards. The encrypted
	// handshake is priced by BenchmarkEncryptedFanout's setup and the
	// crypto e2e tests. The accept queue is too deep for the run to
	// half-fill: on a box that parks the accepting goroutine for tens of
	// milliseconds a fixed depth (64, and 4096 as well) fills behind it,
	// the listener auto-challenges and the guard below reads the
	// hardened path.
	l, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{AcceptInbound: true, AcceptBacklog: 2*b.N + 64, Constraints: core.Permissive(1e6), DisableEncryption: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				// The dialer runs the close handshake; Done fires when it
				// completes. The timeout only reaps strays on a wedged run.
				select {
				case <-conn.Done():
				case <-time.After(30 * time.Second):
				}
				conn.Close()
			}()
		}
	}()

	clients := make([]*qtpnet.Endpoint, workers)
	for i := range clients {
		clients[i], err = qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{DisableEncryption: true})
		if err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}

	addr := l.Addr().String()
	profile := core.QTPLightReliable(0)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(client *qtpnet.Endpoint, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				conn, err := client.Dial(addr, profile, 10*time.Second)
				if err != nil {
					b.Errorf("dial: %v", err)
					return
				}
				// Zero-data close: CloseSend with nothing written runs the
				// Close/CloseAck exchange, so the op covers teardown too.
				conn.CloseSend()
				select {
				case <-conn.Done():
				case <-time.After(10 * time.Second):
				}
				conn.Close()
			}
		}(clients[w], n)
	}
	wg.Wait()
	el := time.Since(start)
	b.ReportMetric(float64(b.N)/el.Seconds(), "handshakes/sec")

	// Tokens are off, so no more than a sliver of handshakes may see
	// hardening: transient accept-queue pressure legitimately
	// auto-challenges a handful under sustained churn, but anything
	// near b.N means the hardened path hijacked the benchmark (e.g.
	// RequireToken leaking in, where RetrySent ≈ b.N).
	st := l.Stats()
	if limit := uint64(b.N/100) + 1; st.RetrySent > limit || st.HandshakeDropped > limit {
		b.Fatalf("hardening engaged on the unhardened path: retry %d shed %d (limit %d of %d handshakes)",
			st.RetrySent, st.HandshakeDropped, limit, b.N)
	}
}
