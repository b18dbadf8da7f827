package qtpnet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// TestOptionConsolidation pins the two-option fold: WithEndpointConfig
// carries every endpoint setting whole, WithShards the shard count, and
// no options at all is the zero config on one shard.
func TestOptionConsolidation(t *testing.T) {
	base := EndpointConfig{
		ReadQueue:     128,
		AcceptBacklog: 7,
		DataPath:      DataPathMmsg,
		AcceptRate:    50,
		RequireToken:  true,
	}
	o := applyOptions([]Option{WithEndpointConfig(base), WithShards(3)})
	if o.cfg != base || o.shards != 3 {
		t.Errorf("fold = %+v shards=%d, want %+v shards=3", o.cfg, o.shards, base)
	}
	if o := applyOptions(nil); o.cfg != (EndpointConfig{}) || o.shards != 1 {
		t.Errorf("empty fold: %+v shards=%d", o.cfg, o.shards)
	}

	// Listen owns AcceptInbound and Constraints; the rest of the seed
	// reaches the endpoint.
	l, err := Listen("127.0.0.1:0", core.Permissive(0), WithEndpointConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := l.Endpoint().cfg
	if !cfg.AcceptInbound || !cfg.Constraints.AllowBBR {
		t.Errorf("Listen did not stamp its own fields: %+v", cfg)
	}
	if cfg.ReadQueue != 128 || cfg.AcceptBacklog != 7 || cfg.AcceptRate != 50 || !cfg.RequireToken {
		t.Errorf("seed fields lost on the way to the endpoint: %+v", cfg)
	}
	if caps := l.Endpoint().Capabilities(); caps.GSO || caps.GRO {
		t.Errorf("DataPathMmsg seed ignored: %+v", caps)
	}
}

// ccTransfer dials the listener proposing the given congestion control,
// pushes a small reliable transfer through, and returns the two
// negotiated profiles.
func ccTransfer(t *testing.T, l *Listener, cc packet.CongestionMode) (client, server core.Profile) {
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
