package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/qtpnet"
)

func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("qtpd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	return o, fs.Parse(args)
}

// TestFlags pins the one-flag-per-setting contract: each endpoint flag
// lands in the EndpointConfig field the listener is built from, and the
// flags -datapath replaced are usage errors, not silent no-ops.
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
	// -shards keeps its meaning across the move into EndpointConfig: a
	// count, 1 by default (the config's zero is the same plain socket),
	// 0 for one shard per core (the config's negative).
	for _, tc := range []struct {
		arg  string
		want int
	}{{"4", 4}, {"1", 1}, {"0", -1}} {
		if o, err := parse("-shards", tc.arg, "-max", "2"); err != nil || o.ep.Shards != tc.want || o.maxConns != 2 {
			t.Errorf("-shards %s -max 2 parsed to Shards=%d max=%d (%v)", tc.arg, o.ep.Shards, o.maxConns, err)
		}
	}
	if _, err := parse("-shards", "many"); err == nil {
		t.Error("-shards many: parsed, want a usage error")
	}
}
