package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/qtpnet"
)

// churnConfig parameterizes the handshake-churn bench: a million-user
// front door in miniature, where connections arrive as a Poisson
// process, live an exponentially-distributed lifetime, and leave — so
// the server spends its time on handshakes and teardown rather than
// bulk transfer.
type churnConfig struct {
	arrival  float64       // mean connection arrivals per second
	lifetime time.Duration // mean connection lifetime
	duration time.Duration // how long to keep the arrivals coming
	shards   int
	ep       qtpnet.EndpointConfig // RequireToken, AcceptRate: server only
	seed     int64
}

// runChurn drives the churn scenario against a real loopback endpoint
// and prints the sustained handshake rate plus the server's hardening
// counters. Dials use a generous timeout so a shed-then-retry handshake
// (one extra round-trip, plus the Retry-after hold-off) still counts as
// a success rather than skewing the failure column.
func runChurn(cfg churnConfig) {
	srvCfg := cfg.ep
	srvCfg.AcceptInbound = true
	srvCfg.Constraints = core.Permissive(1e6)
	srvCfg.Shards = cfg.shards
	srv, err := qtpnet.NewEndpoint("127.0.0.1:0", srvCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	client, err := qtpnet.NewEndpoint("127.0.0.1:0", cfg.ep)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The server side just accepts and waits for each peer's close.
	go func() {
		for {
			conn, err := srv.Accept()
			if err != nil {
				return
			}
			go func() {
				select {
				case <-conn.Done():
				case <-time.After(cfg.duration + 30*time.Second):
				}
				conn.Close()
			}()
		}
	}()

	var ok, failed atomic.Uint64
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(cfg.seed))
	profile := core.QTPLightReliable(0)
	addr := srv.Addr().String()
	start := time.Now()
	for time.Since(start) < cfg.duration {
		// Poisson arrivals: exponential inter-arrival gaps.
		gap := time.Duration(rng.ExpFloat64() / cfg.arrival * float64(time.Second))
		time.Sleep(gap)
		life := time.Duration(rng.ExpFloat64() * float64(cfg.lifetime))
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := client.Dial(addr, profile, 10*time.Second)
			if err != nil {
				failed.Add(1)
				return
			}
			ok.Add(1)
			time.Sleep(life)
			conn.CloseSend()
			conn.Close()
		}()
	}
	wg.Wait()
	el := time.Since(start)

	st := srv.Stats()
	fmt.Printf("churn: %d handshakes ok, %d failed in %v = %.1f handshakes/s (arrival %.0f/s, mean lifetime %v, %d shard(s))\n",
		ok.Load(), failed.Load(), el.Round(time.Millisecond),
		float64(ok.Load())/el.Seconds(), cfg.arrival, cfg.lifetime, srv.NumShards())
	fmt.Printf("churn: require-token=%v accept-rate=%.0f/s: retry %d badtoken %d shed %d ampcap %d acceptovf %d\n",
		cfg.ep.RequireToken, cfg.ep.AcceptRate,
		st.RetrySent, st.TokenInvalid, st.HandshakeDropped,
		st.AmplificationCapped, st.AcceptOverflow)
	fmt.Printf("server: %v\n", st)
	if failed.Load() > ok.Load()/10 {
		log.Fatalf("churn: %d of %d dials failed (>10%%)", failed.Load(), ok.Load()+failed.Load())
	}
}
