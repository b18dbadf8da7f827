// Command qtpcat streams a file (or generated bytes) to a qtpd instance
// over QTP, demonstrating profile negotiation over real UDP. With
// -conns N it fans out N concurrent connections multiplexed over one
// UDP socket — the client side of the Endpoint demux.
//
// Usage:
//
//	qtpcat [-addr host:9000] [-profile qtpaf|qtplight|qtplight-rel|classic]
//	       [-rate bytesPerSec] [-n bytes | -f file] [-conns N] [-insecure]
package main

import (
	"flag"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/qtpnet"
)

// options is everything qtpcat's command line sets; -insecure parses
// straight into the EndpointConfig the client endpoint is built from.
type options struct {
	addr     string
	profName string
	rate     float64
	n        int
	file     string
	conns    int
	ep       qtpnet.EndpointConfig
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9000", "qtpd address")
	fs.StringVar(&o.profName, "profile", "qtpaf", "qtpaf | qtplight | qtplight-rel | classic")
	fs.Float64Var(&o.rate, "rate", 125_000, "QoS target rate for qtpaf, bytes/s")
	fs.IntVar(&o.n, "n", 1<<20, "bytes of generated data to send per connection (ignored with -f)")
	fs.StringVar(&o.file, "f", "", "file to send instead of generated data")
	fs.IntVar(&o.conns, "conns", 1, "concurrent connections fanned out over one UDP socket")
	fs.BoolVar(&o.ep.DisableEncryption, "insecure", false, "disable transport encryption (only works against a server also running -insecure)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	prof, err := core.ParseProfile(o.profName, o.rate)
	if err != nil {
		log.Fatal(err)
	}
	if o.conns < 1 {
		log.Fatalf("-conns %d: need at least one connection", o.conns)
	}

	var data []byte
	if o.file != "" {
		data, err = os.ReadFile(o.file)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		data = make([]byte, o.n)
		for i := range data {
			data[i] = byte(i)
		}
	}

	ep, err := qtpnet.NewEndpoint(":0", o.ep)
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	totalSent, totalRetrans, failed := 0, 0, 0
	for i := 0; i < o.conns; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			conn, err := ep.Dial(o.addr, prof, 10*time.Second)
			if err != nil {
				log.Printf("qtpcat: conn %d: %v", idx, err)
				mu.Lock()
				failed++
				mu.Unlock()
				return
			}
			defer conn.Close()
			if idx == 0 {
				log.Printf("qtpcat: connected, negotiated %v", conn.Profile())
			}
			if _, err := conn.Write(data); err != nil {
				log.Printf("qtpcat: conn %d write: %v", idx, err)
			}
			conn.CloseSend()

			// Wait for the transport to drain and close.
		drain:
			for i := 0; i < 600; i++ {
				select {
				case <-conn.Done():
					break drain
				case <-time.After(100 * time.Millisecond):
				}
				if st := conn.Stats(); st.DataBytesSent >= len(data) {
					time.Sleep(500 * time.Millisecond)
					break
				}
			}
			st := conn.Stats()
			mu.Lock()
			totalSent += st.DataBytesSent
			totalRetrans += st.RetransBytes
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	el := time.Since(start).Seconds()
	log.Printf("qtpcat: %d conns on one socket: sent %d bytes (%d retransmitted, %d failed) in %.2fs (%.1f kB/s aggregate)",
		o.conns, totalSent, totalRetrans, failed, el, float64(totalSent)/el/1000)
}
