package qtpnet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// TestListenConfig pins the two zero-config helpers now that no option
// layer sits between them and the constructor: Listen stamps
// AcceptInbound and Constraints and nothing else, package Dial stamps
// nothing at all, and both run the default one plain socket.
func TestListenConfig(t *testing.T) {
	cons := core.Permissive(1e6)
	l, err := Listen("127.0.0.1:0", cons)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if want := (EndpointConfig{AcceptInbound: true, Constraints: cons}).resolved(); l.cfg != want {
		t.Errorf("Listen built its endpoint from %+v, want %+v", l.cfg, want)
	}
	go l.Accept()
	conn, err := Dial(l.Addr().String(), core.QTPLight(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if want := (EndpointConfig{}).resolved(); conn.owner == nil || conn.owner.cfg != want {
		t.Errorf("Dial's private endpoint: %+v, want config %+v", conn.owner, want)
	}
	if l.NumShards() != 1 || conn.owner.NumShards() != 1 {
		t.Errorf("helpers run %d and %d shards, want one plain socket each", l.NumShards(), conn.owner.NumShards())
	}
}

// ccTransfer dials the listener proposing the given congestion control,
// pushes a small reliable transfer through, and returns the two
// negotiated profiles.
func ccTransfer(t *testing.T, l *Endpoint, cc packet.CongestionMode) (client, server core.Profile) {
	t.Helper()
	type result struct {
		profile core.Profile
		ok      bool
	}
	done := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- result{}
			return
		}
		defer conn.Close()
		deadline := time.Now().Add(20 * time.Second)
		got := 0
		for !conn.Finished() && time.Now().Before(deadline) {
			if chunk, ok := conn.Read(200 * time.Millisecond); ok {
				got += len(chunk)
				conn.Release(chunk)
			}
		}
		done <- result{profile: conn.Profile(), ok: got == 32<<10}
	}()

	profile := core.QTPLightReliable(0)
	profile.Congestion = cc
	conn, err := Dial(l.Addr().String(), profile, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, 32<<10)); err != nil {
		t.Fatal(err)
	}
	conn.CloseSend()
	r := <-done
	if !r.ok {
		t.Fatal("transfer did not complete")
	}
	return conn.Profile(), r.profile
}

// TestCongestionNegotiationUDP runs the congestion TLV end-to-end over
// real sockets: a listener that allows BBR grants a dialer's proposal
// and both sides run it.
func TestCongestionNegotiationUDP(t *testing.T) {
	l, err := Listen("127.0.0.1:0", core.Permissive(0))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cp, sp := ccTransfer(t, l, packet.CongestionBBR)
	if cp.Congestion != packet.CongestionBBR {
		t.Errorf("client negotiated cc=%v, want bbr", cp.Congestion)
	}
	if sp.Congestion != packet.CongestionBBR {
		t.Errorf("server negotiated cc=%v, want bbr", sp.Congestion)
	}
}

// TestCongestionFallbackUDP: a listener whose constraints refuse BBR
// (also how a pre-TLV build effectively behaves) must push the dialer
// back onto TFRC, and the transfer must still complete.
func TestCongestionFallbackUDP(t *testing.T) {
	cons := core.Permissive(0)
	cons.AllowBBR = false
	l, err := Listen("127.0.0.1:0", cons)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cp, sp := ccTransfer(t, l, packet.CongestionBBR)
	if cp.Congestion != packet.CongestionTFRC {
		t.Errorf("client negotiated cc=%v, want tfrc fallback", cp.Congestion)
	}
	if sp.Congestion != packet.CongestionTFRC {
		t.Errorf("server negotiated cc=%v, want tfrc fallback", sp.Congestion)
	}
}
