package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qtpnet"
)

// BenchmarkShardedFanout measures multi-core receive scaling: the same
// many-connection fan-out delivered to a server running 1, 2 or 4
// SO_REUSEPORT shards. Every connection dials from its own client
// socket so the kernel's reuseport hash spreads flows across shards;
// per-connection target rates are set high enough that endpoint CPU —
// demux, reassembly, feedback generation, ack handling — is the
// limiter, not pacing. On a multi-core runner aggregate throughput
// (MB/s) should scale toward the shard count; on a single core the
// shard counts converge, and the cross-shard counters plus per-shard
// spread still validate the data path. One op is the whole fan-out
// delivered reliably.
func BenchmarkShardedFanout(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedFanout(b, shards)
		})
	}
}

func benchShardedFanout(b *testing.B, shards int) {
	const (
		nConns  = 32
		perConn = 256 << 10
		rate    = 2e7 // per-conn ceiling; CPU saturates first
	)
	srv, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(rate),
		Shards:        shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if srv.NumShards() != shards {
		b.Skipf("platform fell back to %d shard(s), want %d", srv.NumShards(), shards)
	}

	// One client endpoint per connection: distinct source ports give the
	// kernel distinct flows to hash across the server's shards (a single
	// shared client socket would pin every frame to one shard).
	clients := make([]*qtpnet.Endpoint, nConns)
	for i := range clients {
		clients[i], err = qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}

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
			conn, err := clients[j].Dial(srv.Addr().String(), core.QTPAF(rate), 10*time.Second)
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
				b.Fatalf("stream delivered %d bytes, want %d", n, perConn)
			}
		}
	}
	b.StopTimer()

	st := srv.Stats()
	b.ReportMetric(st.AvgRecvBatch(), "dgram/rxcall")
	b.ReportMetric(float64(st.CrossShardFwd)/float64(b.N), "xshard-fwd/op")
	if st.CrossShardRecv+st.CrossShardDrops != st.CrossShardFwd {
		b.Errorf("handoff imbalance: fwd %d != recv %d + drops %d",
			st.CrossShardFwd, st.CrossShardRecv, st.CrossShardDrops)
	}
	if shards > 1 && runtime.GOOS == "linux" {
		// The kernel must actually have spread the load: a sharded run
		// where one shard saw everything means reuseport hashing broke.
		busy := 0
		for _, ss := range srv.ShardStats() {
			if ss.DatagramsIn > 0 {
				busy++
			}
		}
		if busy <= 1 {
			b.Errorf("only %d of %d shards received datagrams", busy, shards)
		}
	}
}
