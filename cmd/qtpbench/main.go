// Command qtpbench regenerates the full evaluation: every experiment
// table and figure series of internal/experiments (E1–E10, A1–A3, whose
// quick tables are pinned in internal/experiments/testdata/*.golden),
// printed as aligned text.
// With -loopback it instead drives the real UDP endpoint over loopback
// and reports goodput plus the endpoint's batched-I/O statistics.
//
// Usage:
//
//	qtpbench [-quick] [-seed N] [-only E1,E4,...]
//	qtpbench -loopback [-conns N] [-mbytes M] [-cc tfrc|bbr] [-datapath auto|mmsg|portable]
//	         [-insecure] [-shards N] [-streams N -mix reliable,unordered,expiring [-deadline D]]
//	qtpbench -churn [-arrival N] [-lifetime D] [-duration D] [-shards N]
//	         [-require-token] [-accept-rate N] [-insecure]
//
// Any mode additionally takes -cpuprofile/-memprofile (pprof files for
// `go tool pprof`) and -pprof-addr (live net/http/pprof listener).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/profiling"
	"repro/internal/qtpnet"
)

// options is everything qtpbench's command line sets. The endpoint
// settings the real-UDP modes share parse straight into one
// EndpointConfig: one flag per field.
type options struct {
	quick    bool
	seed     int64
	only     string
	loopback bool
	conns    int
	mbytes   int
	rate     float64
	shards   int // the server's EndpointConfig.Shards; clients stay on one socket
	streams  int
	mix      string
	deadline time.Duration
	cc       string
	churn    bool
	arrival  float64
	lifetime time.Duration
	duration time.Duration
	ep       qtpnet.EndpointConfig

	cpuprofile string
	memprofile string
	pprofAddr  string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.BoolVar(&o.quick, "quick", false, "run shortened scenarios (seconds instead of minutes)")
	fs.Int64Var(&o.seed, "seed", 1, "scenario random seed (results are deterministic per seed)")
	fs.StringVar(&o.only, "only", "", "comma-separated experiment IDs to run (default: all)")
	fs.BoolVar(&o.loopback, "loopback", false, "run a real-UDP loopback fan-out and print endpoint stats")
	fs.IntVar(&o.conns, "conns", 16, "loopback: concurrent connections on one socket pair")
	fs.IntVar(&o.mbytes, "mbytes", 4, "loopback: MiB to stream per connection")
	fs.Float64Var(&o.rate, "rate", 4e6, "loopback: per-connection QoS target, bytes/s (keep the aggregate under what loopback can carry or loss recovery dominates)")
	fs.Var(&o.ep.DataPath, "datapath", "loopback: ceiling on the data-path ladder for both ends: auto | mmsg (no GSO/GRO) | portable (one datagram per syscall)")
	fs.Func("shards", "loopback/churn: SO_REUSEPORT server shards (default 1; 0 = one per core); >1 gives every loopback conn its own client socket so the kernel hash can spread flows", func(v string) error {
		n, err := strconv.Atoi(v)
		if n <= 0 {
			n = -1 // the flag's "one per core" is the config's negative count
		}
		o.shards = n
		return err
	})
	fs.IntVar(&o.streams, "streams", 1, "loopback: streams per connection (>1 negotiates stream multiplexing and spreads each connection's bytes across them)")
	fs.StringVar(&o.mix, "mix", "reliable", "loopback: comma-separated delivery modes cycled across streams: reliable | unordered | expiring")
	fs.DurationVar(&o.deadline, "deadline", 200*time.Millisecond, "loopback: retransmission deadline for expiring streams")
	fs.StringVar(&o.cc, "cc", "", "loopback: congestion control for client flows: tfrc (default, gTFRC clamped at -rate) | bbr (window-based, drops the QoS reservation)")
	fs.BoolVar(&o.churn, "churn", false, "run a real-UDP handshake-churn scenario (Poisson arrivals, exponential lifetimes) and report sustained handshakes/s")
	fs.Float64Var(&o.arrival, "arrival", 200, "churn: mean connection arrivals per second")
	fs.DurationVar(&o.lifetime, "lifetime", 500*time.Millisecond, "churn: mean connection lifetime")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "churn: how long to sustain arrivals")
	fs.BoolVar(&o.ep.RequireToken, "require-token", false, "churn: server challenges every token-less Connect with a stateless Retry")
	fs.Float64Var(&o.ep.AcceptRate, "accept-rate", 0, "churn: server-side cap on new connections per second per shard (0 = unlimited)")
	fs.BoolVar(&o.ep.DisableEncryption, "insecure", false, "loopback/churn: disable transport encryption on both ends (A/B the AEAD cost)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile (after GC) to this file on exit")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve live net/http/pprof on this host:port for the duration of the run")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	stopProfiles := profiling.Start(o.cpuprofile, o.memprofile, o.pprofAddr)
	defer stopProfiles()

	if o.churn {
		runChurn(churnConfig{
			arrival:  o.arrival,
			lifetime: o.lifetime,
			duration: o.duration,
			shards:   o.shards,
			ep:       o.ep,
			seed:     o.seed,
		})
		return
	}

	if o.loopback {
		modes, err := packet.ParseModes(o.mix)
		if err != nil {
			log.Fatal(err)
		}
		ccMode, err := packet.ParseCongestion(o.cc)
		if err != nil {
			log.Fatal(err)
		}
		runLoopback(o.conns, o.mbytes<<20, o.rate, ccMode, o.ep,
			o.shards, o.streams, modes, o.deadline)
		return
	}

	want := map[string]bool{}
	if o.only != "" {
		for _, id := range strings.Split(o.only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	cfg := experiments.Config{Seed: o.seed, Quick: o.quick}
	ran := 0
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", r.ID, r.Name)
		tbl := r.Run(cfg)
		fmt.Fprintf(os.Stderr, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		tbl.Render(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched -only; known IDs:")
		for _, r := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-4s %s\n", r.ID, r.Name)
		}
		os.Exit(2)
	}
}

// runLoopback streams perConn bytes over n concurrent connections to a
// (possibly SO_REUSEPORT-sharded) server endpoint and prints what the
// batched data path did: goodput, datagrams per syscall each way, the
// cross-shard forwarding balance, drops. With one shard every client
// connection shares one socket pair; with more, each connection dials
// from its own socket so the kernel's reuseport hash can spread flows
// across the shards. With nStreams > 1 every connection negotiates
// stream multiplexing and splits its bytes across that many streams,
// delivery modes cycling through the -mix list, so the bench exercises
// the round-robin stream scheduler under real socket load.
func runLoopback(n, perConn int, rate float64, cc packet.CongestionMode,
	ep qtpnet.EndpointConfig,
	shards, nStreams int, modes []qtpnet.StreamMode, deadline time.Duration) {

	cfg := ep
	cfg.AcceptInbound = true
	cfg.Constraints = core.Permissive(rate)
	cfg.Shards = shards
	srv, err := qtpnet.NewEndpoint("127.0.0.1:0", cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	nClients := 1
	if srv.NumShards() > 1 {
		nClients = n
	}
	clients := make([]*qtpnet.Endpoint, nClients)
	for i := range clients {
		clients[i], err = qtpnet.NewEndpoint("127.0.0.1:0", ep)
		if err != nil {
			log.Fatal(err)
		}
		defer clients[i].Close()
	}

	// Per-delivery-mode receive accounting, aggregated across every
	// server-side stream.
	var modeMu sync.Mutex
	modeDelivered := map[string]int{}
	modeStreams := map[string]int{}

	var srvWG sync.WaitGroup
	srvWG.Add(n)
	go func() {
		for {
			conn, err := srv.Accept()
			if err != nil {
				return
			}
			go func() {
				defer srvWG.Done()
				defer conn.Close()
				// Non-zero streams announce themselves as their first
				// frames arrive; each gets its own drain goroutine.
				var streamWG sync.WaitGroup
				acceptDone := make(chan struct{})
				go func() {
					defer close(acceptDone)
					for {
						s, ok := conn.AcceptStream(500 * time.Millisecond)
						if !ok {
							select {
							case <-conn.Done():
								return
							default:
								if conn.Finished() {
									return
								}
								continue
							}
						}
						streamWG.Add(1)
						go func() {
							defer streamWG.Done()
							for {
								chunk, ok := s.Read(2 * time.Second)
								if ok {
									s.Release(chunk)
									continue
								}
								select {
								case <-conn.Done():
									return
								default:
								}
								if conn.Finished() {
									return
								}
							}
						}()
					}
				}()
			drain:
				for !conn.Finished() {
					chunk, ok := conn.Read(2 * time.Second)
					if !ok {
						if conn.Finished() {
							break
						}
						select {
						case <-conn.Done():
							// Closed under us; account whatever landed.
							break drain
						default:
							continue
						}
					}
					conn.Release(chunk)
				}
				<-acceptDone
				streamWG.Wait()
				// Fold this connection's per-stream ledger into the
				// per-mode totals before the linger.
				modeMu.Lock()
				if conn.MultiStream() {
					for id := uint64(0); id < uint64(nStreams); id++ {
						if st, ok := conn.StreamStats(id); ok {
							modeDelivered[st.Mode.String()] += st.DeliveredBytes
							modeStreams[st.Mode.String()]++
						}
					}
				} else {
					st := conn.Stats()
					modeDelivered[qtpnet.StreamReliableOrdered.String()] += st.DeliveredBytes
					modeStreams[qtpnet.StreamReliableOrdered.String()]++
				}
				modeMu.Unlock()
				// Linger until the sender's close handshake lands: tearing
				// down on Finished would unroute the connection before its
				// final ack flushes, leaving the sender retransmitting the
				// stream tail into a dead demux entry.
				select {
				case <-conn.Done():
				case <-time.After(10 * time.Second):
				}
			}()
		}
	}()

	perStream := perConn
	if nStreams > 1 {
		perStream = perConn / nStreams
	}
	data := make([]byte, perStream)
	for i := range data {
		data[i] = byte(i)
	}
	var profile core.Profile
	if cc == packet.CongestionBBR {
		// BBR and the gTFRC QoS clamp are mutually exclusive; the BBR
		// bench runs the reliable QTPlight profile without a reservation.
		profile = core.QTPLightReliable(0)
		profile.Congestion = packet.CongestionBBR
	} else {
		profile = core.QTPAF(rate)
	}
	if nStreams > 1 {
		profile.MaxStreams = nStreams
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(client *qtpnet.Endpoint) {
			defer wg.Done()
			conn, err := client.Dial(srv.Addr().String(), profile, 10*time.Second)
			if err != nil {
				log.Fatalf("dial: %v", err)
			}
			if nStreams > 1 && !conn.MultiStream() {
				log.Fatal("server refused stream multiplexing")
			}
			var cwg sync.WaitGroup
			for si := 1; si < nStreams; si++ {
				mode := modes[(si-1)%len(modes)]
				var dl time.Duration
				if mode == qtpnet.StreamExpiring {
					dl = deadline
				}
				s, err := conn.OpenStream(mode, dl)
				if err != nil {
					log.Fatalf("open stream: %v", err)
				}
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					s.Write(data)
					s.CloseSend()
				}()
			}
			conn.Write(data)
			conn.CloseSend()
			cwg.Wait()
			select {
			case <-conn.Done():
			case <-time.After(60 * time.Second):
			}
			conn.Close()
		}(clients[i%nClients])
	}
	wg.Wait()
	srvWG.Wait()
	el := time.Since(start)

	total := n * perStream
	if nStreams > 1 {
		total = n * perStream * nStreams
	}
	// The label is what the client's socket probed in, not what the
	// flags asked for: the portable rung is also where every non-linux
	// platform lands.
	mode := clients[0].Capabilities().String()
	if ep.DisableEncryption {
		mode += ", cleartext"
	} else {
		mode += ", sealed"
	}
	if cc == packet.CongestionBBR {
		mode += ", bbr"
	}
	fmt.Printf("loopback: %d conns x %d B in %v = %.1f MB/s (%s, %d server shard(s))\n",
		n, total/n, el.Round(time.Millisecond), float64(total)/el.Seconds()/1e6, mode, srv.NumShards())
	if nStreams > 1 {
		fmt.Printf("streams: %d per conn, mix %s, deadline %v\n", nStreams, func() string {
			names := make([]string, len(modes))
			for i, m := range modes {
				names[i] = m.String()
			}
			return strings.Join(names, ",")
		}(), deadline)
		modeMu.Lock()
		for name, bytes := range modeDelivered {
			fmt.Printf("  %-19s %3d streams, %d bytes delivered\n", name+":", modeStreams[name], bytes)
		}
		modeMu.Unlock()
	}
	for i, c := range clients {
		fmt.Printf("client[%d]: %v\n", i, c.Stats())
		if i >= 3 && nClients > 4 {
			fmt.Printf("client[...]: (%d more)\n", nClients-i-1)
			break
		}
	}
	fmt.Printf("server: %v\n", srv.Stats())
	if srv.NumShards() > 1 {
		for i, st := range srv.ShardStats() {
			fmt.Printf("  shard[%d]: %v\n", i, st)
		}
	}
}
