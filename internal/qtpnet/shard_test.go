package qtpnet

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/seqspace"
)

// newShardedOrSkip builds an n-shard endpoint, skipping the test where
// the platform cannot actually shard.
func newShardedOrSkip(t *testing.T, addr string, cfg EndpointConfig, n int) *Endpoint {
	t.Helper()
	cfg.Shards = n
	e, err := NewEndpoint(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumShards() != n {
		e.Close()
		t.Skipf("platform fell back to %d shard(s), want %d (no SO_REUSEPORT)", e.NumShards(), n)
	}
	return e
}

// TestCrossShardForwardExactlyOnce injects a frame on the wrong shard
// and proves the handoff path: the frame reaches its connection exactly
// once, the forwarding shard counts a CrossShardFwd, the owning shard a
// CrossShardRecv, and nothing lands in NoRoute.
func TestCrossShardForwardExactlyOnce(t *testing.T) {
	const nShards = 4
	// Plaintext endpoints: the test hand-crafts raw data frames, which an
	// encrypted connection would (correctly) refuse to accept unsealed.
	srv := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{
		AcceptInbound:     true,
		Constraints:       core.Permissive(1e6),
		DisableEncryption: true,
	}, nShards)
	defer srv.Close()

	client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{DisableEncryption: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	accepted := make(chan *Conn, 1)
	go func() {
		c, err := srv.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	if _, err := client.Dial(srv.Addr().String(), core.QTPLight(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var sc *Conn
	select {
	case sc = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server accepted nothing")
	}

	owner := packet.CIDShard(sc.ID())
	if owner >= nShards {
		t.Fatalf("conn ID %#x names shard %d, want < %d", sc.ID(), owner, nShards)
	}
	// Let the trailing Confirm land so frame counters go quiet.
	time.Sleep(300 * time.Millisecond)
	base := sc.Stats().FramesReceived
	baseAgg := srv.Stats()

	// A fresh data frame stamped with the server conn's local ID, as the
	// peer would send it.
	hdr := packet.Header{Type: packet.TypeData, ConnID: sc.ID(), Seq: 1, PayloadLen: 4}
	frame := append(hdr.AppendTo(nil), 'q', 't', 'p', '!')
	from := netip.MustParseAddrPort("127.0.0.1:4242")

	wrong := (owner + 1) % nShards
	if !srv.shards[wrong].deliver(from, frame) {
		t.Fatal("wrong-shard deliver rejected the frame instead of forwarding it")
	}
	deadline := time.Now().Add(3 * time.Second)
	for sc.Stats().FramesReceived != base+1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := sc.Stats().FramesReceived; got != base+1 {
		t.Fatalf("forwarded frame delivered %d times, want exactly 1", got-base)
	}
	// No second delivery sneaks in later.
	time.Sleep(100 * time.Millisecond)
	if got := sc.Stats().FramesReceived; got != base+1 {
		t.Fatalf("forwarded frame delivered %d times after settle, want exactly 1", got-base)
	}

	if st := srv.shards[wrong].stats(); st.CrossShardFwd != baseAgg.CrossShardFwd+1 {
		t.Errorf("forwarding shard counted %d forwards, want %d", st.CrossShardFwd, baseAgg.CrossShardFwd+1)
	}
	if st := srv.shards[owner].stats(); st.CrossShardRecv != baseAgg.CrossShardRecv+1 {
		t.Errorf("owning shard counted %d handoff receives, want %d", st.CrossShardRecv, baseAgg.CrossShardRecv+1)
	}
	agg := srv.Stats()
	if agg.CrossShardFwd != baseAgg.CrossShardFwd+1 || agg.CrossShardRecv != baseAgg.CrossShardRecv+1 {
		t.Errorf("aggregate stats missed the forward: %v", agg)
	}
	if agg.NoRoute != baseAgg.NoRoute {
		t.Errorf("forward counted as NoRoute: %d -> %d", baseAgg.NoRoute, agg.NoRoute)
	}

	// The same frame on the owning shard routes directly: no forward.
	if !srv.shards[owner].deliver(from, frame) {
		t.Fatal("right-shard deliver rejected the frame")
	}
	if got := srv.Stats().CrossShardFwd; got != baseAgg.CrossShardFwd+1 {
		t.Errorf("right-shard delivery forwarded anyway: %d forwards", got)
	}
}

// TestShardedDialForwarding drives real traffic through a sharded
// *dial-side* endpoint: each connection is minted on a round-robin
// shard, but the kernel hashes the server's reply flow independently,
// so most connections' inbound frames arrive on the wrong shard and
// must cross the hand-off inbox. Every stream must still arrive intact,
// and the forward/receive counters must balance.
func TestShardedDialForwarding(t *testing.T) {
	const (
		nShards = 4
		nConns  = 16
		perConn = 8 << 10
	)
	client := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{}, nShards)
	defer client.Close()

	l, err := Listen("127.0.0.1:0", core.Permissive(2e6))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		tag byte
		n   int
		err error
	}
	results := make(chan result, nConns)
	go func() {
		for i := 0; i < nConns; i++ {
			conn, err := l.Accept()
			if err != nil {
				results <- result{err: err}
				return
			}
			go func() {
				defer conn.Close()
				r := result{tag: 0xff}
				deadline := time.Now().Add(30 * time.Second)
				for !conn.Finished() && time.Now().Before(deadline) {
					chunk, ok := conn.Read(time.Second)
					if !ok {
						continue
					}
					for _, b := range chunk {
						if r.tag == 0xff {
							r.tag = b
						} else if b != r.tag {
							r.err = fmt.Errorf("mixed stream: tag %d saw %d", r.tag, b)
						}
					}
					r.n += len(chunk)
					conn.Release(chunk)
				}
				for { // drain chunks queued behind the FIN
					chunk, ok := conn.Read(50 * time.Millisecond)
					if !ok {
						break
					}
					r.n += len(chunk)
					conn.Release(chunk)
				}
				if !conn.Finished() {
					r.err = fmt.Errorf("stream %d incomplete: %d bytes", r.tag, r.n)
				}
				results <- r
			}()
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, nConns)
	for i := 0; i < nConns; i++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			conn, err := client.Dial(l.Addr().String(), core.QTPLight(), 15*time.Second)
			if err != nil {
				errCh <- fmt.Errorf("dial %d: %w", tag, err)
				return
			}
			data := make([]byte, perConn)
			for j := range data {
				data[j] = tag
			}
			if _, err := conn.Write(data); err != nil {
				errCh <- fmt.Errorf("write %d: %w", tag, err)
				return
			}
			conn.CloseSend()
			select {
			case <-conn.Done():
			case <-time.After(30 * time.Second):
				errCh <- fmt.Errorf("conn %d never finished its close", tag)
			}
		}(byte(i))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	seen := make(map[byte]bool)
	for i := 0; i < nConns; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.n != perConn {
				t.Fatalf("stream %d delivered %d bytes, want %d", r.tag, r.n, perConn)
			}
			if seen[r.tag] {
				t.Fatalf("stream %d delivered twice", r.tag)
			}
			seen[r.tag] = true
		case <-time.After(60 * time.Second):
			t.Fatalf("timed out after %d of %d streams", i, nConns)
		}
	}

	// With 16 flows hashed over 4 shards the chance every reply flow
	// lands on its minting shard is (1/4)^16; the handoff path must have
	// carried real traffic, and everything forwarded must be accounted
	// for as received or dropped.
	time.Sleep(200 * time.Millisecond) // let in-flight handoffs settle
	st := client.Stats()
	if st.CrossShardFwd == 0 {
		t.Error("sharded dial endpoint forwarded nothing; handoff path untested")
	}
	if st.CrossShardRecv+st.CrossShardDrops != st.CrossShardFwd {
		t.Errorf("handoff imbalance: fwd %d != recv %d + drops %d",
			st.CrossShardFwd, st.CrossShardRecv, st.CrossShardDrops)
	}
}

// TestShardedAcceptSpread checks the kernel actually spreads inbound
// flows: with 16 distinct client sockets over 4 shards, the accepted
// connections' IDs must name more than one shard (the odds of a single
// shard winning all 16 hashes are (1/4)^15).
func TestShardedAcceptSpread(t *testing.T) {
	const (
		nShards = 4
		nConns  = 16
	)
	srv := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
	}, nShards)
	defer srv.Close()

	shardsSeen := make(map[uint32]bool)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for i := 0; i < nConns; i++ {
			c, err := srv.Accept()
			if err != nil {
				return
			}
			shardsSeen[packet.CIDShard(c.ID())] = true
		}
	}()

	clients := make([]*Endpoint, nConns)
	for i := range clients {
		e, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		clients[i] = e
		if _, err := e.Dial(srv.Addr().String(), core.QTPLight(), 10*time.Second); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	select {
	case <-acceptDone:
	case <-time.After(15 * time.Second):
		t.Fatal("accepts timed out")
	}
	if len(shardsSeen) < 2 {
		t.Errorf("all %d flows hashed to %d shard(s); reuseport spread broken", nConns, len(shardsSeen))
	}
	if srv.ConnCount() != nConns {
		t.Errorf("sharded endpoint carries %d conns, want %d", srv.ConnCount(), nConns)
	}
}

// TestShardedFallbackSingleShard proves Shards 0 and Shards 1 are the
// same thing — one plain socket, which is also what the constructor
// clamps to where SO_REUSEPORT does not exist: no hand-off inbox, no
// shard bits in the connection IDs it mints on either side of a
// connection, no cross-shard traffic counted.
func TestShardedFallbackSingleShard(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("Shards=%d", shards), func(t *testing.T) {
			srv, err := NewEndpoint("127.0.0.1:0", EndpointConfig{
				AcceptInbound: true,
				Constraints:   core.Permissive(1e6),
				Shards:        shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if n := srv.NumShards(); n != 1 || srv.shards[0].inbox != nil {
				t.Fatalf("runs %d shards (inbox %v), want one plain socket", n, srv.shards[0].inbox != nil)
			}

			client, err := NewEndpoint("127.0.0.1:0", EndpointConfig{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			accepted := make(chan *Conn, 1)
			go func() {
				if c, err := srv.Accept(); err == nil {
					accepted <- c
				}
			}()
			conn, err := client.Dial(srv.Addr().String(), core.QTPLight(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			var sc *Conn
			select {
			case sc = <-accepted:
			case <-time.After(5 * time.Second):
				t.Fatal("endpoint accepted nothing")
			}
			if conn.ID() != 1 || sc.ID() != 1 {
				t.Errorf("first conn IDs %#x / %#x, want the bare sequence number 1", conn.ID(), sc.ID())
			}

			const msg = "one shard still speaks QTP"
			if _, err := conn.Write([]byte(msg)); err != nil {
				t.Fatal(err)
			}
			conn.CloseSend()
			got := ""
			deadline := time.Now().Add(10 * time.Second)
			for !sc.Finished() && time.Now().Before(deadline) {
				chunk, ok := sc.Read(time.Second)
				if !ok {
					continue
				}
				got += string(chunk)
				sc.Release(chunk)
			}
			if got != msg {
				t.Fatalf("delivered %q, want %q", got, msg)
			}
			for name, st := range map[string]EndpointStats{"server": srv.Stats(), "client": client.Stats()} {
				if st.CrossShardFwd != 0 || st.CrossShardRecv != 0 || st.CrossShardDrops != 0 {
					t.Errorf("%s counted cross-shard traffic on one shard: %v", name, st)
				}
			}
		})
	}
}

// TestShardDeathUnblocksAccept pins the death propagation: one shard's
// persistent socket error must doom the whole endpoint, so Accept
// returns ErrEndpointClosed instead of blocking forever on a port that
// can no longer serve, and Err names the cause.
func TestShardDeathUnblocksAccept(t *testing.T) {
	srv := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{
		AcceptInbound: true,
		Constraints:   core.Permissive(1e6),
	}, 2)
	defer srv.Close()

	acceptErr := make(chan error, 1)
	go func() {
		_, err := srv.Accept()
		acceptErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let Accept block
	srv.shards[1].pc.Close()          // one socket dies under its read loop
	select {
	case err := <-acceptErr:
		if err != ErrEndpointClosed {
			t.Fatalf("Accept returned %v, want ErrEndpointClosed", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Accept still blocked after a shard died")
	}
	if srv.Err() == nil {
		t.Error("Err() is nil after a shard's socket died; the cause was lost")
	}
}

// TestHandoffRing exercises the hand-off path between shards directly.
// First on two bare shards no socket feeds and no loop drains: a full
// inbox rejects (counted as a drop) instead of blocking or overwriting,
// and what was accepted comes out in FIFO order. Then with concurrent
// forwarders against a real shard's loop, which nothing but their kicks
// can wake: every accepted forward goes through a round exactly once.
func TestHandoffRing(t *testing.T) {
	ep := &Endpoint{done: make(chan struct{})}
	for i := uint32(0); i < 2; i++ {
		ep.shards = append(ep.shards, &shard{ep: ep, idx: i, bio: newClockIO(), inbox: make(chan ioMsg, handoffCap)})
	}
	src, owner := ep.shards[0], ep.shards[1]
	addr := netip.MustParseAddrPort("127.0.0.1:1")
	// A data frame for a connection the owner has never heard of: it is
	// counted as received from the inbox, then as a no-route.
	frame := func(seq uint32) []byte {
		hdr := packet.Header{Type: packet.TypeData, ConnID: packet.CIDForShard(1, 7), Seq: seqspace.Seq(seq)}
		return hdr.AppendTo(nil)
	}

	// Fill to capacity with nobody draining; the next forward must fail.
	for i := 0; i < handoffCap; i++ {
		if !src.forwardFrame(1, addr, frame(uint32(i))) {
			t.Fatalf("forward %d rejected below capacity", i)
		}
	}
	if src.forwardFrame(1, addr, frame(0xee)) {
		t.Fatal("forward beyond capacity accepted")
	}
	if src.forwardFrame(2, addr, frame(0xef)) {
		t.Fatal("forward to a shard that does not exist accepted")
	}
	if fwd, drop := src.crossFwd.Load(), src.crossDrop.Load(); fwd != handoffCap || drop != 2 {
		t.Fatalf("counted %d forwards and %d drops, want %d and 2", fwd, drop, handoffCap)
	}
	for i := 0; i < handoffCap; i++ {
		f := <-owner.inbox
		var hdr packet.Header
		if _, err := hdr.Parse(f.buf); err != nil || uint32(hdr.Seq) != uint32(i) || f.addr != addr {
			t.Fatalf("inbox slot %d holds seq %d from %v (%v): FIFO order broken", i, hdr.Seq, f.addr, err)
		}
		bufpool.Put(f.buf)
	}
	if len(owner.inbox) != 0 {
		t.Fatal("inbox not empty after draining what was forwarded")
	}

	// Concurrent forwarders vs the owner's loop, parked on a socket
	// nothing writes to.
	real := newShardedOrSkip(t, "127.0.0.1:0", EndpointConfig{}, 2)
	defer real.Close()
	src, owner = real.shards[0], real.shards[1]
	const producers, perProducer = 4, 2048
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				src.forwardFrame(1, addr, frame(uint32(i)))
			}
		}()
	}
	wg.Wait()
	accepted := src.crossFwd.Load()
	if accepted+src.crossDrop.Load() != producers*perProducer {
		t.Fatalf("forwards %d + drops %d do not add up to %d attempts", accepted, src.crossDrop.Load(), producers*perProducer)
	}
	deadline := time.Now().Add(5 * time.Second)
	// crossRecv moves as a frame leaves the inbox, noRoute once its
	// round has handled it.
	for (owner.crossRecv.Load() != accepted || owner.noRoute.Load() != accepted) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := owner.crossRecv.Load(); got != accepted {
		t.Fatalf("forwarded %d frames but the owner delivered %d", accepted, got)
	}
	if got := owner.noRoute.Load(); got != accepted {
		t.Errorf("owner routed %d of %d frames somewhere; none had a connection", accepted-got, accepted)
	}
	if st := owner.stats(); st.RecvBatches != 0 || st.Wakeups != 0 {
		t.Errorf("owner counted %d read batches and %d wakeups; its socket received nothing", st.RecvBatches, st.Wakeups)
	}
}
