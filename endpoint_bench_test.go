package repro

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qtpnet"
)

// BenchmarkEndpoint measures the multiplexed UDP endpoint's receive
// demux path: 64 handshaked connections share one socket, and each
// operation delivers one pre-encoded feedback frame that must be routed
// by connection ID to its connection and folded into that connection's
// rate control. ns/op is the per-frame demux+handle cost (1/ns·op =
// frames/s of demux throughput); with pooled receive buffers and
// allocation-free frame handling, allocs/op must be zero.
func BenchmarkEndpoint(b *testing.B) {
	const nConns = 64

	// Plaintext endpoints: this bench injects pre-encoded feedback frames
	// straight into Deliver, which an encrypted connection would (rightly)
	// refuse as cleartext. The demux cost it isolates is the same either
	// way — sealed datagrams route before AEAD open.
	l, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{AcceptInbound: true, Constraints: core.Permissive(2e6), DisableEncryption: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()

	client, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{DisableEncryption: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	// Establish the fleet: every conn is a sender awaiting feedback.
	conns := make([]*qtpnet.Conn, nConns)
	for i := range conns {
		c, err := client.Dial(l.Addr().String(), core.QTPAF(1e6), 10*time.Second)
		if err != nil {
			b.Fatalf("dial %d: %v", i, err)
		}
		conns[i] = c
	}

	// One pre-encoded receiver report per connection, stamped with that
	// connection's local ID exactly as the peer would. TSEcho is set so
	// the wrap-safe RTT recovery rejects the sample (these frames are
	// injected, not round-tripped).
	frames := make([][]byte, nConns)
	for i, c := range conns {
		fb := packet.Feedback{XRecv: 1 << 17, LossRate: 0.01, SACK: packet.SACK{CumAck: 1}}
		payload, err := fb.AppendTo(nil)
		if err != nil {
			b.Fatal(err)
		}
		hdr := packet.Header{
			Type:       packet.TypeFeedback,
			ConnID:     c.ID(),
			TSEcho:     1 << 31,
			PayloadLen: uint16(len(payload)),
		}
		frames[i] = append(hdr.AppendTo(nil), payload...)
	}
	from := l.Addr().(*net.UDPAddr).AddrPort()

	b.ReportAllocs()
	b.SetBytes(int64(len(frames[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !client.Deliver(from, frames[i%nConns]) {
			b.Fatal("frame not delivered")
		}
	}
}

// BenchmarkEndpointLoopback measures end-to-end goodput through the
// full stack: 8 concurrent connections multiplexed on one socket per
// side, streaming over real loopback UDP. One op is one 64 KiB stream
// delivered reliably. Allocations here include the data plane
// (segmentation, reassembly, delivery) — the demux itself is covered by
// BenchmarkEndpoint.
func BenchmarkEndpointLoopback(b *testing.B) {
	const (
		nConns  = 8
		perConn = 64 << 10
	)
	// Plaintext, like every committed baseline from before encryption
	// landed; BenchmarkEncryptedFanout carries the sealed-path number.
	l, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{AcceptInbound: true, Constraints: core.Permissive(1e8), DisableEncryption: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()

	client, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{DisableEncryption: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	srvDone := make(chan int, nConns*8)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				n := 0
				for !conn.Finished() {
					chunk, ok := conn.Read(5 * time.Second)
					if !ok {
						select {
						case <-conn.Done():
							srvDone <- n
							return
						default:
							continue
						}
					}
					n += len(chunk)
					conn.Release(chunk)
				}
				for { // drain anything still queued
					chunk, ok := conn.Read(10 * time.Millisecond)
					if !ok {
						break
					}
					n += len(chunk)
					conn.Release(chunk)
				}
				srvDone <- n
			}()
		}
	}()

	data := make([]byte, perConn)
	for i := range data {
		data[i] = byte(i)
	}

	b.ReportAllocs()
	b.SetBytes(perConn * nConns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < nConns; j++ {
			conn, err := client.Dial(l.Addr().String(), core.QTPAF(1.25e7), 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				conn.Write(data)
				conn.CloseSend()
				// Full reliability: protocol teardown fires only once
				// everything (FIN included) is acknowledged.
				select {
				case <-conn.Done():
				case <-time.After(30 * time.Second):
				}
				conn.Close()
			}()
		}
		for j := 0; j < nConns; j++ {
			if n := <-srvDone; n != perConn {
				b.Fatalf("stream delivered %d bytes, want %d", n, perConn)
			}
		}
	}
}

// BenchmarkEndpointFanout measures the batched data path under
// many-connection load: 64 connections multiplexed on one socket pair,
// each streaming 256 KiB concurrently. One op is the whole fan-out
// delivered reliably. Beyond ns/op, it reports the measured datagrams
// per receive/send syscall on the server endpoint — the number batching
// exists to raise (the fallback path pins it at 1). Segment offload is
// on where the kernel supports it, exactly as in production.
func BenchmarkEndpointFanout(b *testing.B) {
	benchFanout(b, qtpnet.DataPathAuto, false, packet.CongestionTFRC, 64, 256<<10, 2e6)
}

// BenchmarkEncryptedFanout is BenchmarkEndpointFanout with transport
// encryption left on (the production default): every data datagram is
// sealed with AES-256-GCM before send and opened on receive, and
// each carries the 28-byte sealed-prefix+tag overhead. The delta
// against BenchmarkEndpointFanout is the full AEAD cost on the batched
// data path — seal, open, nonce/replay bookkeeping, and the extra wire
// bytes — with GSO trains and mmsg batches intact.
func BenchmarkEncryptedFanout(b *testing.B) {
	benchFanout(b, qtpnet.DataPathAuto, true, packet.CongestionTFRC, 64, 256<<10, 2e6)
}

// BenchmarkEndpointFanoutNoBatch is the same load on the forced
// single-datagram socket path: the difference against
// BenchmarkEndpointFanout is what recvmmsg/sendmmsg buy.
func BenchmarkEndpointFanoutNoBatch(b *testing.B) {
	benchFanout(b, qtpnet.DataPathPortable, false, packet.CongestionTFRC, 64, 256<<10, 2e6)
}

// BenchmarkGSOFanout is BenchmarkEndpointFanout with segment offload
// explicitly exercised (it skips where the kernel has no UDP_SEGMENT):
// each connection's runs of equal-size frames leave as UDP_SEGMENT
// trains and the receive side reads GRO-merged super-datagrams. Against
// BenchmarkGSOFanoutNoGSO — the same load pinned to plain sendmmsg —
// the dgram/txcall and dgram/rxcall metrics show what offload buys over
// the mmsg floor; client tx metrics are reported as c-dgram/txcall
// since the streaming side is where trains form.
func BenchmarkGSOFanout(b *testing.B) { benchGSOFanout(b, qtpnet.DataPathAuto) }

// BenchmarkGSOFanoutNoGSO is the sendmmsg baseline for
// BenchmarkGSOFanout (offload disabled, batching still on).
func BenchmarkGSOFanoutNoGSO(b *testing.B) { benchGSOFanout(b, qtpnet.DataPathMmsg) }

func benchGSOFanout(b *testing.B, ceiling qtpnet.DataPath) {
	probe, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{})
	if err != nil {
		b.Fatal(err)
	}
	gso := probe.GSOEnabled()
	probe.Close()
	if !gso {
		b.Skip("kernel without UDP_SEGMENT; GSO fan-out has no offload to measure")
	}
	// Hotter per-connection rate than the EndpointFanout shape: trains
	// and GRO merges only form when flush queues and receive bursts
	// outgrow what one mmsg message can carry, which is exactly the
	// regime segment offload exists for.
	benchFanout(b, ceiling, false, packet.CongestionTFRC, 32, 256<<10, 5e6)
}

// BenchmarkBBRFanout is the fan-out load with every connection running
// the BBR controller instead of the gTFRC-clamped QTPAF profile: same
// socket pair, same batched data path, but window-gated pacing driven
// by the bandwidth×RTT estimator. The delta against
// BenchmarkEndpointFanout prices the per-packet cc ledger (the BBR
// send ring diffing each ack vector into acknowledgments and losses)
// under real socket load; on loopback's negligible BDP the controller sits in its initial
// window, so this measures bookkeeping, not ramp behaviour.
func BenchmarkBBRFanout(b *testing.B) {
	benchFanout(b, qtpnet.DataPathAuto, false, packet.CongestionBBR, 64, 256<<10, 2e6)
}

// benchFanout runs the fan-out load with the listed knobs. encrypted
// defaults to false across the rung-comparison benches so their
// committed baselines (which predate transport encryption) stay
// comparable; BenchmarkEncryptedFanout flips it to price the AEAD.
// cc selects the dial profile: CongestionTFRC keeps the historical
// QTPAF(rate) shape, CongestionBBR swaps in reliable QTPlight running
// the window-based controller (BBR excludes the QoS clamp).
func benchFanout(b *testing.B, ceiling qtpnet.DataPath, encrypted bool, cc packet.CongestionMode, nConns, perConn int, rate float64) {
	srv, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{
		AcceptInbound:     true,
		Constraints:       core.Permissive(rate),
		DataPath:          ceiling,
		DisableEncryption: !encrypted,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{
		DataPath:          ceiling,
		DisableEncryption: !encrypted,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	srvDone := make(chan int, nConns*8)
	go func() {
		for {
			conn, err := srv.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				n := 0
				for !conn.Finished() {
					chunk, ok := conn.Read(5 * time.Second)
					if !ok {
						select {
						case <-conn.Done():
							srvDone <- n
							return
						default:
							continue
						}
					}
					n += len(chunk)
					conn.Release(chunk)
				}
				for { // drain chunks queued behind the FIN
					chunk, ok := conn.Read(10 * time.Millisecond)
					if !ok {
						break
					}
					n += len(chunk)
					conn.Release(chunk)
				}
				// Linger through the sender's close handshake so the
				// final acks flush while the connection is routable.
				select {
				case <-conn.Done():
				case <-time.After(10 * time.Second):
				}
				srvDone <- n
			}()
		}
	}()

	data := make([]byte, perConn)
	for i := range data {
		data[i] = byte(i)
	}

	profile := core.QTPAF(rate)
	if cc == packet.CongestionBBR {
		profile = core.QTPLightReliable(0)
		profile.Congestion = packet.CongestionBBR
	}

	b.ReportAllocs()
	b.SetBytes(int64(perConn) * int64(nConns))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < nConns; j++ {
			conn, err := client.Dial(srv.Addr().String(), profile, 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				conn.Write(data)
				conn.CloseSend()
				select {
				case <-conn.Done():
				case <-time.After(30 * time.Second):
				}
				conn.Close()
			}()
		}
		for j := 0; j < nConns; j++ {
			if n := <-srvDone; n != perConn {
				b.Fatalf("stream delivered %d bytes, want %d (srv err %v, client err %v)",
					n, perConn, srv.Err(), client.Err())
			}
		}
	}
	b.StopTimer()

	st := srv.Stats()
	b.ReportMetric(st.AvgRecvBatch(), "dgram/rxcall")
	b.ReportMetric(st.AvgSendBatch(), "dgram/txcall")
	// The client is the streaming side, where segment trains form;
	// its tx ratio is the number GSO exists to raise above the mmsg
	// floor, and GroMerged on the server shows the receive half.
	cst := client.Stats()
	b.ReportMetric(cst.AvgSendBatch(), "c-dgram/txcall")
	if cst.GsoTrains > 0 || st.GroMerged > 0 {
		b.ReportMetric(float64(cst.GsoSegs)/float64(b.N), "c-gsosegs/op")
		b.ReportMetric(float64(st.GroMerged)/float64(b.N), "gromerged/op")
	}
	if cst.GsoFallbacks > 0 {
		b.Errorf("kernel refused %d segment trains on loopback", cst.GsoFallbacks)
	}
	// On linux the batch path must demonstrably coalesce: a 64-way
	// fan-out that never fills a batch means the ring is broken.
	if ceiling != qtpnet.DataPathPortable && runtime.GOOS == "linux" && st.MaxRecvBatch <= 1 {
		b.Errorf("batch path never received more than %d datagram per syscall", st.MaxRecvBatch)
	}
}
