package qtpnet

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestGSOProbeDecision pins the capability probe's contract: the
// detect-or-fallback decision is observable (Capabilities) and logged —
// CI's datapath job greps for the decision line — and a DataPathMmsg
// ceiling forces the fallback on any kernel.
func TestGSOProbeDecision(t *testing.T) {
	e, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.GSOEnabled() {
		t.Logf("gso probe decision: offload (UDP_SEGMENT on, gro=%v)", e.GROEnabled())
	} else {
		t.Logf("gso probe decision: fallback (sendmmsg; gro=%v)", e.GROEnabled())
	}

	e2, err := NewEndpoint("127.0.0.1:0", EndpointConfig{DataPath: DataPathMmsg})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.GSOEnabled() || e2.GROEnabled() {
		t.Fatal("DataPathMmsg did not keep segment offload off")
	}
	t.Logf("gso probe decision: fallback (DataPathMmsg ceiling)")
}

// TestGROSlicing feeds expandGRO a hand-built super-datagram — three
// 10-byte frames merged by a pretend kernel, the last truncated to 4
// — and checks it is sliced into per-packet views, in order, without
// copying, while unmerged messages pass through untouched.
func TestGROSlicing(t *testing.T) {
	from := testAddr(7000)
	super := []byte("aaaaaaaaaabbbbbbbbbbcccc") // 10 + 10 + 4
	plain := []byte("dddddd")
	ms := []ioMsg{
		{buf: super, n: len(super), addr: from, segSize: 10},
		{buf: plain, n: len(plain), addr: testAddr(7001)},
	}
	out, merged := expandGRO(ms, nil)
	if merged != 3 {
		t.Fatalf("merged datagram count = %d, want 3", merged)
	}
	if len(out) != 4 {
		t.Fatalf("expanded to %d views, want 4", len(out))
	}
	wants := []string{"aaaaaaaaaa", "bbbbbbbbbb", "cccc", "dddddd"}
	for i, want := range wants {
		if got := string(out[i].buf[:out[i].n]); got != want {
			t.Errorf("view %d = %q, want %q", i, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		if out[i].addr != from {
			t.Errorf("view %d addr = %v, want %v", i, out[i].addr, from)
		}
		if &out[i].buf[0] != &super[i*10] {
			t.Errorf("view %d copied instead of aliasing the read buffer", i)
		}
	}
	// A message whose segSize covers the whole read is not a merge.
	out2, merged2 := expandGRO([]ioMsg{{buf: plain, n: 6, addr: from, segSize: 6}}, nil)
	if merged2 != 0 || len(out2) != 1 || out2[0].n != 6 {
		t.Fatalf("segSize==n message mishandled: views %d merged %d", len(out2), merged2)
	}
}

// TestGSOEquivalence proves the GSO/GRO path and the plain sendmmsg
// path are interchangeable: a 64-connection fan-out moves byte-identical
// streams across every offload pairing, so kernels without
// UDP_SEGMENT (and DataPathMmsg escapes) lose only syscall efficiency,
// never behavior. On a kernel without GSO every pairing degenerates to
// the sendmmsg path and the test still must pass.
func TestGSOEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("64-conn fan-out transfer in -short mode")
	}
	const nConns, perConn = 64, 8 << 10
	cases := []struct {
		name        string
		client, srv DataPath
	}{
		{"gso_to_nogso", DataPathAuto, DataPathMmsg},
		{"nogso_to_gso", DataPathMmsg, DataPathAuto},
		{"gso_to_gso", DataPathAuto, DataPathAuto},
		{"nogso_to_nogso", DataPathMmsg, DataPathMmsg},
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
			client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
				DataPath: tc.client,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			transfer(t, client, srv, nConns, perConn)

			cst, sst := client.Stats(), srv.Stats()
			t.Logf("client gso=%v %v", client.GSOEnabled(), cst)
			t.Logf("server gso=%v %v", srv.GSOEnabled(), sst)
			if tc.client != DataPathAuto && cst.GsoTrains != 0 {
				t.Errorf("offload-disabled client sent %d trains", cst.GsoTrains)
			}
			if err := client.Err(); err != nil {
				t.Errorf("client endpoint error after clean transfer: %v", err)
			}
			if err := srv.Err(); err != nil {
				t.Errorf("server endpoint error after clean transfer: %v", err)
			}
		})
	}
}

// TestGSOTrainOnWire drives a real loopback fan-out — many
// connections, one destination, so the flush queue holds runs of
// same-destination frames — and asserts that on a GSO-capable kernel
// the client actually sends segment trains, no train is refused, and
// (via transfer's checks) every stream arrives byte-identical.
func TestGSOTrainOnWire(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", core.Permissive(1e8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.GSOEnabled() {
		t.Skipf("kernel without UDP_SEGMENT (gso probe decision: fallback); nothing to assert")
	}

	transfer(t, client, srv, 8, 64<<10)

	cst, sst := client.Stats(), srv.Stats()
	t.Logf("client %v", cst)
	t.Logf("server %v", sst)
	if cst.GsoTrains == 0 {
		t.Error("GSO-enabled client sent no segment trains under an 8-conn fan-out")
	}
	if cst.GsoFallbacks != 0 {
		t.Errorf("kernel refused %d trains on loopback", cst.GsoFallbacks)
	}
}

// TestGSOSingleConnTrains is the batching one connection earns on its
// own at QTPAF(1e9), where a full frame's pacing interval is about
// 1.4 µs. Frames a round releases together leave together: as segment
// trains where the socket probed GSO in, as multi-datagram sendmmsg
// calls under -datapath=mmsg. The portable rung sends one datagram a
// call whatever the round holds.
//
// backlogged is one 4 MiB write, the check that a backlogged connection
// batches at all. Before pacing in quanta it read 7–15 segments a train,
// and as few as 3.7 inside a busy whole-suite binary. With quanta it
// mostly reads 19–27, but a whole-suite run under -cleartext has read
// 7.1. Its bound is what one frame per round can never meet, not a
// train size.
//
// closed-loop is the bulk workloads' shape: 64 KiB blocks, the next
// written once the server has read the last. Each block restarts the
// schedule and opens a quantum (every frame the next 100 µs of the
// schedule holds, up to 64), so a block's 47 frames leave as two trains
// (one train holds at most 65,000 bytes). Pacing one frame per interval
// read 8–9 a train here; a quantum makes it at least 16.
func TestGSOSingleConnTrains(t *testing.T) {
	for _, tc := range []struct {
		name          string
		block, blocks int
		perTrain      int // least segments a train on a GSO socket; 0: most datagrams in trains
	}{
		{"backlogged", 4 << 20, 1, 0},
		{"closed-loop", 64 << 10, 64, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Listen("127.0.0.1:0", core.Permissive(1e9))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if !client.Capabilities().Batch {
				t.Skip("portable rung: one datagram per send call by construction")
			}

			total := tc.block * tc.blocks
			read := make(chan struct{}, tc.blocks) // one token per block the server has read
			got := make(chan int, 1)
			go func() {
				n := 0
				defer func() { got <- n }()
				conn, err := srv.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				for done := 0; !conn.Finished(); {
					chunk, ok := conn.Read(10 * time.Second)
					if !ok {
						return
					}
					n += len(chunk)
					conn.Release(chunk)
					for ; done < n/tc.block; done++ {
						read <- struct{}{}
					}
				}
			}()
			conn, err := client.Dial(srv.Addr().String(), core.QTPAF(1e9), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			data := make([]byte, tc.block)
			for i := 0; i < tc.blocks; i++ {
				if _, err := conn.Write(data); err != nil {
					t.Fatal(err)
				}
				select {
				case <-read:
				case <-time.After(30 * time.Second):
					t.Fatalf("server did not read block %d", i)
				}
			}
			conn.CloseSend()
			select {
			case <-conn.Done():
			case <-time.After(30 * time.Second):
				t.Fatal("transfer did not complete")
			}
			if n := <-got; n != total {
				t.Fatalf("server read %d of %d bytes", n, total)
			}

			st := client.Stats()
			t.Logf("client gso=%v: %d datagrams in %d send calls, %d trains carrying %d segments",
				client.GSOEnabled(), st.DatagramsOut, st.SendBatches, st.GsoTrains, st.GsoSegs)
			if st.DatagramsOut <= 2*st.SendBatches {
				t.Errorf("%d datagrams in %d send calls: want more than 2 a call", st.DatagramsOut, st.SendBatches)
			}
			if client.GSOEnabled() && 2*st.GsoSegs <= st.DatagramsOut {
				t.Errorf("%d of %d datagrams left inside segment trains: want most", st.GsoSegs, st.DatagramsOut)
			}
			if client.GSOEnabled() && st.GsoSegs < uint64(tc.perTrain)*st.GsoTrains {
				t.Errorf("%d segments in %d trains: want at least %d a train", st.GsoSegs, st.GsoTrains, tc.perTrain)
			}
		})
	}
}
