// Command qtpd is the QTP responder daemon: a multi-client server that
// accepts any number of concurrent connections on one UDP socket,
// receives their streams, and reports what was negotiated and
// delivered. Pair it with qtpcat.
//
// Usage:
//
//	qtpd [-listen :9000] [-shards n] [-datapath auto|mmsg|portable] [-insecure] [-require-token] [-accept-rate n] [-no-bbr] [-qos-budget bytesPerSec] [-o prefix] [-max n] [-v]
//	     [-cpuprofile f] [-memprofile f] [-pprof-addr host:port]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/qtpnet"
)

// options is everything qtpd's command line sets. The endpoint settings
// parse straight into the EndpointConfig the endpoint is built from:
// one flag per field, no second copy.
type options struct {
	listen     string
	ep         qtpnet.EndpointConfig
	noBBR      bool
	budget     float64
	maxStreams int
	out        string
	maxConns   int
	verbose    bool
	cpuprofile string
	memprofile string
	pprofAddr  string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", ":9000", "UDP address to listen on")
	fs.Func("shards", "SO_REUSEPORT shards to run on the port (default 1; 0 = one per core; falls back to 1 where unsupported)", func(v string) error {
		n, err := strconv.Atoi(v)
		if n <= 0 {
			n = -1 // the flag's "one per core" is the config's negative count
		}
		o.ep.Shards = n
		return err
	})
	fs.Var(&o.ep.DataPath, "datapath", "ceiling on the data-path ladder: auto (best the kernel probes in) | mmsg (no GSO/GRO) | portable (one datagram per syscall)")
	fs.BoolVar(&o.ep.DisableEncryption, "insecure", false, "disable transport encryption (accepts only plaintext peers that also run -insecure; debugging/interop escape hatch)")
	fs.BoolVar(&o.ep.RequireToken, "require-token", false, "challenge every token-less Connect with a stateless Retry (address validation before any state allocation)")
	fs.Float64Var(&o.ep.AcceptRate, "accept-rate", 0, "cap new inbound connections per second per shard; excess is shed with a Retry-after hint (0 = unlimited)")
	fs.BoolVar(&o.noBBR, "no-bbr", false, "refuse BBR congestion-control proposals (peers fall back to the TFRC family)")
	fs.Float64Var(&o.budget, "qos-budget", 0, "max QoS reservation to grant per connection, bytes/s (0 = refuse QoS)")
	fs.IntVar(&o.maxStreams, "max-streams", 64, "max concurrent streams to grant per connection (0 = refuse stream multiplexing)")
	fs.StringVar(&o.out, "o", "", "write each stream to <prefix>.<connID> (default: discard)")
	fs.IntVar(&o.maxConns, "max", 0, "exit after serving this many connections (0 = serve forever)")
	fs.BoolVar(&o.verbose, "v", false, "periodically log endpoint datagram/batch statistics")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile (after GC) to this file on exit")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve live net/http/pprof on this host:port (inspect a running daemon)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	stopProfiles := profiling.Start(o.cpuprofile, o.memprofile, o.pprofAddr)
	defer stopProfiles()

	cons := core.Constraints{
		MaxTargetRate:   o.budget,
		AllowSenderLoss: true,
		MaxReliability:  2, // full
		MaxStreams:      o.maxStreams,
		AllowBBR:        !o.noBBR,
	}
	o.ep.AcceptInbound = true
	o.ep.Constraints = cons
	ep, err := qtpnet.NewEndpoint(o.listen, o.ep)
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	log.Printf("qtpd: listening on %s, %d shard(s) (QoS budget %.0f B/s per conn)",
		ep.Addr(), ep.NumShards(), o.budget)
	caps := ep.Capabilities()
	log.Printf("qtpd: data path: %v: batch=%v gso=%v gro=%v (per shard; -datapath %v)",
		caps, caps.Batch, caps.GSO, caps.GRO, o.ep.DataPath)
	log.Printf("qtpd: handshake hardening: require-token=%v accept-rate=%.0f/s per shard",
		o.ep.RequireToken, o.ep.AcceptRate)
	log.Printf("qtpd: congestion control: bbr grants %v (-no-bbr to refuse; TFRC always granted)",
		!o.noBBR)
	if o.ep.DisableEncryption {
		log.Printf("qtpd: WARNING: transport encryption disabled (-insecure); all frames travel in cleartext")
	}

	if o.verbose {
		rcv, snd := ep.SocketBufSizes()
		log.Printf("qtpd: effective socket buffers: rcvbuf=%d sndbuf=%d", rcv, snd)
		go func() {
			for {
				time.Sleep(10 * time.Second)
				log.Printf("qtpd: endpoint %v", ep.Stats())
			}
		}()
		defer func() { log.Printf("qtpd: endpoint %v", ep.Stats()) }()
	}

	var wg sync.WaitGroup
	for served := 0; o.maxConns == 0 || served < o.maxConns; served++ {
		conn, err := ep.Accept()
		if err != nil {
			log.Printf("qtpd: accept: %v", err)
			break
		}
		log.Printf("qtpd: conn %d accepted, negotiated %v", conn.ID(), conn.Profile())
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(conn, o.out)
		}()
	}
	wg.Wait()
}

// serve drains one connection — the implicit stream 0 plus any
// multiplexed streams the peer opens, each to its own sink — and
// reports its outcome.
func serve(conn *qtpnet.Conn, prefix string) {
	defer conn.Close()

	sink := func(suffix string) (io.Writer, func()) {
		if prefix == "" {
			return io.Discard, func() {}
		}
		f, err := os.Create(fmt.Sprintf("%s.%d%s", prefix, conn.ID(), suffix))
		if err != nil {
			log.Printf("qtpd: conn %d: %v", conn.ID(), err)
			return io.Discard, func() {}
		}
		return f, func() { f.Close() }
	}
	w, closeW := sink("")
	defer closeW()

	// Multiplexed streams announce themselves as their first frames
	// arrive; drain each to <prefix>.<connID>.s<streamID>.
	var streamWG sync.WaitGroup
	streamsDone := make(chan struct{})
	go func() {
		defer close(streamsDone)
		for {
			s, ok := conn.AcceptStream(time.Second)
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
				sw, closeSW := sink(fmt.Sprintf(".s%d", s.ID()))
				defer closeSW()
				for {
					chunk, ok := s.Read(2 * time.Second)
					if ok {
						sw.Write(chunk)
						s.Release(chunk)
						continue
					}
					select {
					case <-conn.Done():
					default:
						if !conn.Finished() {
							continue
						}
					}
					st := s.Stats()
					log.Printf("qtpd: conn %d stream %d (%v): %d bytes delivered, %d skipped",
						conn.ID(), s.ID(), s.Mode(), st.DeliveredBytes, st.SkippedSegs)
					return
				}
			}()
		}
	}()

	total := 0
	start := time.Now()
	for {
		chunk, ok := conn.Read(2 * time.Second)
		if !ok {
			if conn.Finished() {
				break
			}
			select {
			case <-conn.Done():
				log.Printf("qtpd: conn %d closed before finishing", conn.ID())
				return
			default:
			}
			st := conn.Stats()
			if st.FramesReceived > 0 && time.Since(start) > 30*time.Second {
				break
			}
			continue
		}
		total += len(chunk)
		_, err := w.Write(chunk)
		conn.Release(chunk)
		if err != nil {
			log.Printf("qtpd: conn %d: %v", conn.ID(), err)
			return
		}
	}
	<-streamsDone
	streamWG.Wait()
	el := time.Since(start).Seconds()
	fmt.Printf("qtpd: conn %d received %d bytes in %.2fs (%.1f kB/s), finished=%v\n",
		conn.ID(), total, el, float64(total)/el/1000, conn.Finished())
}
