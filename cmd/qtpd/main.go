// Command qtpd is the QTP responder daemon: a multi-client server that
// accepts any number of concurrent connections on one UDP socket,
// receives their streams, and reports what was negotiated and
// delivered. Pair it with qtpcat.
//
// Usage:
//
//	qtpd [-listen :9000] [-shards n] [-nogso] [-insecure] [-require-token] [-accept-rate n] [-no-bbr] [-qos-budget bytesPerSec] [-o prefix] [-max n] [-v]
//	     [-cpuprofile f] [-memprofile f] [-pprof-addr host:port]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/profiling"
	"repro/internal/qtpnet"
)

func main() {
	listen := flag.String("listen", ":9000", "UDP address to listen on")
	shards := flag.Int("shards", 1, "SO_REUSEPORT shards to run on the port (0 = one per core; falls back to 1 where unsupported)")
	nogso := flag.Bool("nogso", false, "keep UDP segment offload (GSO/GRO) off even where the kernel supports it")
	insecure := flag.Bool("insecure", false, "disable transport encryption (accepts only plaintext peers that also run -insecure; debugging/interop escape hatch)")
	requireToken := flag.Bool("require-token", false, "challenge every token-less Connect with a stateless Retry (address validation before any state allocation)")
	acceptRate := flag.Float64("accept-rate", 0, "cap new inbound connections per second per shard; excess is shed with a Retry-after hint (0 = unlimited)")
	noBBR := flag.Bool("no-bbr", false, "refuse BBR congestion-control proposals (peers fall back to the TFRC family)")
	budget := flag.Float64("qos-budget", 0, "max QoS reservation to grant per connection, bytes/s (0 = refuse QoS)")
	maxStreams := flag.Int("max-streams", 64, "max concurrent streams to grant per connection (0 = refuse stream multiplexing)")
	out := flag.String("o", "", "write each stream to <prefix>.<connID> (default: discard)")
	maxConns := flag.Int("max", 0, "exit after serving this many connections (0 = serve forever)")
	verbose := flag.Bool("v", false, "periodically log endpoint datagram/batch statistics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	pprofAddr := flag.String("pprof-addr", "", "serve live net/http/pprof on this host:port (inspect a running daemon)")
	flag.Parse()
	stopProfiles := profiling.Start(*cpuprofile, *memprofile, *pprofAddr)
	defer stopProfiles()

	cons := core.Constraints{
		MaxTargetRate:   *budget,
		AllowSenderLoss: true,
		MaxReliability:  2, // full
		MaxStreams:      *maxStreams,
		AllowBBR:        !*noBBR,
	}
	opts := []qtpnet.Option{qtpnet.WithShards(*shards)}
	if *nogso {
		opts = append(opts, qtpnet.WithNoGSO())
	}
	if *insecure {
		opts = append(opts, qtpnet.WithNoEncryption())
	}
	if *requireToken {
		opts = append(opts, qtpnet.WithRequireToken())
	}
	if *acceptRate > 0 {
		opts = append(opts, qtpnet.WithAcceptRate(*acceptRate))
	}
	l, err := qtpnet.Listen(*listen, cons, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	log.Printf("qtpd: listening on %s, %d shard(s) (QoS budget %.0f B/s per conn)",
		l.Addr(), l.Sharded().NumShards(), *budget)
	ep := l.Endpoint()
	log.Printf("qtpd: data path: batch=%v gso=%v gro=%v txtime=%v (per shard; -nogso or QTPNET_NOGSO keeps offload off)",
		ep.BatchEnabled(), ep.GSOEnabled(), ep.GROEnabled(), ep.TxTimeEnabled())
	log.Printf("qtpd: handshake hardening: require-token=%v accept-rate=%.0f/s per shard",
		*requireToken, *acceptRate)
	log.Printf("qtpd: congestion control: bbr grants %v (-no-bbr to refuse; TFRC always granted)",
		!*noBBR)
	if *insecure {
		log.Printf("qtpd: WARNING: transport encryption disabled (-insecure); all frames travel in cleartext")
	}

	if *verbose {
		rcv, snd := ep.SocketBufSizes()
		log.Printf("qtpd: effective socket buffers: rcvbuf=%d sndbuf=%d", rcv, snd)
		go func() {
			for {
				time.Sleep(10 * time.Second)
				log.Printf("qtpd: endpoint %v", l.Stats())
			}
		}()
		defer func() { log.Printf("qtpd: endpoint %v", l.Stats()) }()
	}

	var wg sync.WaitGroup
	for served := 0; *maxConns == 0 || served < *maxConns; served++ {
		conn, err := l.Accept()
		if err != nil {
			log.Printf("qtpd: accept: %v", err)
			break
		}
		log.Printf("qtpd: conn %d accepted, negotiated %v", conn.ID(), conn.Profile())
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(conn, *out)
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
