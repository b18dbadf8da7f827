package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/qtpnet"
)

func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("qtpbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	return o, fs.Parse(args)
}

// TestFlags pins the one-flag-per-setting contract: each endpoint flag
// lands in the EndpointConfig field both loopback ends are built from,
// and the flags -datapath replaced are usage errors, not silent no-ops.
func TestFlags(t *testing.T) {
	good := []struct {
		args []string
		want qtpnet.EndpointConfig
	}{
		{nil, qtpnet.EndpointConfig{}},
		{[]string{"-datapath", "auto"}, qtpnet.EndpointConfig{DataPath: qtpnet.DataPathAuto}},
		{[]string{"-datapath", "mmsg"}, qtpnet.EndpointConfig{DataPath: qtpnet.DataPathMmsg}},
		{[]string{"-datapath=portable"}, qtpnet.EndpointConfig{DataPath: qtpnet.DataPathPortable}},
		{[]string{"-insecure"}, qtpnet.EndpointConfig{DisableEncryption: true}},
		{[]string{"-require-token", "-accept-rate", "50"}, qtpnet.EndpointConfig{RequireToken: true, AcceptRate: 50}},
	}
	for _, tc := range good {
		o, err := parse(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
		} else if o.ep != tc.want {
			t.Errorf("%v: endpoint config %+v, want %+v", tc.args, o.ep, tc.want)
		}
	}
	for _, args := range [][]string{{"-datapath", "uring"}, {"-datapath"}, {"-nogso"}, {"-nobatch"}, {"-nouring"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v: parsed, want a usage error", args)
		}
	}
	// -shards keeps its meaning across the move into EndpointConfig: the
	// server's shard count, 0 for one per core (the config's negative),
	// and never a field of the config both ends share.
	for _, tc := range []struct {
		arg  string
		want int
	}{{"4", 4}, {"1", 1}, {"0", -1}} {
		if o, err := parse("-loopback", "-shards", tc.arg); err != nil || !o.loopback || o.shards != tc.want || o.ep.Shards != 0 {
			t.Errorf("-loopback -shards %s parsed to loopback=%v shards=%d ep.Shards=%d (%v)", tc.arg, o.loopback, o.shards, o.ep.Shards, err)
		}
	}
	if _, err := parse("-shards", "many"); err == nil {
		t.Error("-shards many: parsed, want a usage error")
	}
}
