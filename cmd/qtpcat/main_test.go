package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/qtpnet"
)

func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("qtpcat", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	return o, fs.Parse(args)
}

// TestFlags pins that -insecure reaches the EndpointConfig the client
// endpoint is built from and that qtpcat, which never had a data-path
// flag, still has none: its socket takes the best rung it probes in.
func TestFlags(t *testing.T) {
	o, err := parse()
	if err != nil || o.ep != (qtpnet.EndpointConfig{}) {
		t.Errorf("no flags: %+v, %v; want the zero endpoint config", o.ep, err)
	}
	o, err = parse("-insecure", "-conns", "8", "-profile", "qtplight")
	if err != nil || !o.ep.DisableEncryption || o.conns != 8 || o.profName != "qtplight" {
		t.Errorf("-insecure -conns 8 -profile qtplight: %+v, %v", o, err)
	}
	for _, args := range [][]string{{"-datapath", "mmsg"}, {"-nogso"}, {"-nobatch"}, {"-conns", "x"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v: parsed, want a usage error", args)
		}
	}
}
