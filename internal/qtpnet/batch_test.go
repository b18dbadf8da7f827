package qtpnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// transfer streams total bytes over nConns connections from a client
// endpoint to a listening endpoint and returns the reassembled bytes
// per connection, failing the test on any loss or corruption.
func transfer(t *testing.T, client, l *Endpoint, nConns, perConn int) {
	t.Helper()
	results := make(chan error, nConns)
	go func() {
		for i := 0; i < nConns; i++ {
			conn, err := l.Accept()
			if err != nil {
				results <- err
				return
			}
			go func() {
				defer conn.Close()
				var got bytes.Buffer
				deadline := time.Now().Add(30 * time.Second)
				for !conn.Finished() && time.Now().Before(deadline) {
					chunk, ok := conn.Read(time.Second)
					if !ok {
						continue
					}
					got.Write(chunk)
					conn.Release(chunk)
				}
				for {
					chunk, ok := conn.Read(50 * time.Millisecond)
					if !ok {
						break
					}
					got.Write(chunk)
					conn.Release(chunk)
				}
				if !conn.Finished() {
					results <- fmt.Errorf("stream incomplete: %d of %d bytes", got.Len(), perConn)
					return
				}
				for i, b := range got.Bytes() {
					if b != byte(i*31) {
						results <- fmt.Errorf("corruption at byte %d", i)
						return
					}
				}
				if got.Len() != perConn {
					results <- fmt.Errorf("delivered %d bytes, want %d", got.Len(), perConn)
					return
				}
				results <- nil
			}()
		}
	}()

	data := make([]byte, perConn)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for i := 0; i < nConns; i++ {
		conn, err := client.Dial(l.Addr().String(), core.QTPAF(2e6), 10*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		go func() {
			if _, err := conn.Write(data); err == nil {
				conn.CloseSend()
			}
		}()
	}
	for i := 0; i < nConns; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("transfer timed out")
		}
	}
}

// TestEndpointFallbackEquivalence proves the rungs of the data-path
// ladder are interchangeable: every DataPath ceiling on either side
// moves the same streams to the same bytes, so platforms without
// recvmmsg/sendmmsg or UDP_SEGMENT (and DataPath escapes) lose only
// throughput, never behavior. ("batch" is the zero ceiling, "fallback"
// the portable floor.)
func TestEndpointFallbackEquivalence(t *testing.T) {
	const nConns, perConn = 4, 16 << 10
	cases := []struct {
		name        string
		client, srv DataPath
	}{
		{"batch_to_fallback", DataPathAuto, DataPathPortable},
		{"fallback_to_batch", DataPathPortable, DataPathAuto},
		{"fallback_to_fallback", DataPathPortable, DataPathPortable},
		{"batch_to_mmsg", DataPathAuto, DataPathMmsg},
		{"mmsg_to_batch", DataPathMmsg, DataPathAuto},
		{"mmsg_to_fallback", DataPathMmsg, DataPathPortable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
				AcceptInbound: true,
				Constraints:   core.Permissive(1e7),
				DataPath:      tc.srv,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{DataPath: tc.client})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			transfer(t, client, srv, nConns, perConn)

			for _, e := range []*Endpoint{client, srv} {
				st := e.Stats()
				if st.DatagramsIn == 0 || st.DatagramsOut == 0 {
					t.Errorf("stats show no traffic: %v", st)
				}
				if st.RecvBatches == 0 || st.SendBatches == 0 {
					t.Errorf("stats show no syscalls: %v", st)
				}
				if err := e.Err(); err != nil {
					t.Errorf("endpoint error after clean transfer: %v", err)
				}
			}
			// A ceiling is a ceiling whatever the kernel offers.
			for _, side := range []struct {
				e       *Endpoint
				ceiling DataPath
			}{{client, tc.client}, {srv, tc.srv}} {
				caps := side.e.Capabilities()
				if side.ceiling >= DataPathMmsg && (caps.GSO || caps.GRO) {
					t.Errorf("ceiling %v but segment offload probed in: %+v", side.ceiling, caps)
				}
				if side.ceiling == DataPathPortable && caps != (Capabilities{}) {
					t.Errorf("ceiling %v but capabilities %+v", side.ceiling, caps)
				}
			}
			if tc.srv == DataPathPortable {
				if mb := srv.Stats().MaxRecvBatch; mb > 1 {
					t.Errorf("fallback endpoint reports batch of %d; single-read path must cap at 1", mb)
				}
			}
		})
	}
}

// TestEndpointStatsString exercises the human-readable stats rendering
// used by qtpd -v.
func TestEndpointStatsString(t *testing.T) {
	s := EndpointStats{DatagramsIn: 10, RecvBatches: 4, DatagramsOut: 6, SendBatches: 3}
	if got := s.String(); got == "" {
		t.Fatal("empty stats string")
	}
	if s.AvgRecvBatch() != 2.5 || s.AvgSendBatch() != 2 {
		t.Fatalf("avg batch math wrong: %v %v", s.AvgRecvBatch(), s.AvgSendBatch())
	}
	var zero EndpointStats
	if zero.AvgRecvBatch() != 0 {
		t.Fatal("zero-division in AvgRecvBatch")
	}
}

// TestDataPathShims pins the API the repo benchmark compiles against
// (benchmark/README.md, "Entry points") now that the io_uring rungs and
// the SO_TXTIME stamps are gone: DisableUring is accepted and ignored,
// UringEnabled, UringDeferred and TxTimeEnabled answer false, and
// Wakeups is always RecvBatches. No rung sizes its socket buffers
// differently from another (SO_TXTIME used to halve the request). Root
// `go test ./...` skips the nested benchmark module, so this is where
// that contract is checked.
func TestDataPathShims(t *testing.T) {
	type bufSizes struct{ rcv, snd int }
	var first bufSizes
	for _, tc := range []struct {
		name    string
		disable bool
		path    DataPath
	}{
		{"DisableUring=false", false, DataPathAuto},
		{"DisableUring=true", true, DataPathAuto},
		{"DataPath=portable", false, DataPathPortable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
				AcceptInbound: true,
				Constraints:   core.Permissive(1e7),
				DisableUring:  tc.disable,
				DataPath:      tc.path,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{DisableUring: tc.disable, DataPath: tc.path})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			transfer(t, client, srv, 2, 16<<10)

			for _, e := range []*Endpoint{client, srv} {
				if e.UringEnabled() || e.UringDeferred() || e.TxTimeEnabled() {
					t.Errorf("UringEnabled=%v UringDeferred=%v TxTimeEnabled=%v, want all false",
						e.UringEnabled(), e.UringDeferred(), e.TxTimeEnabled())
				}
				st := e.Stats()
				if st.RecvBatches == 0 || st.Wakeups != st.RecvBatches {
					t.Errorf("Wakeups=%d RecvBatches=%d, want equal and non-zero",
						st.Wakeups, st.RecvBatches)
				}
				var got bufSizes
				got.rcv, got.snd = e.SocketBufSizes()
				if first == (bufSizes{}) {
					first = got
				} else if got != first {
					t.Errorf("SocketBufSizes = %+v on %v, want %+v as on every rung", got, tc.path, first)
				}
			}
		})
	}
}
