package main

import (
	"flag"
	"io"
	"testing"
	"time"
)

func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("qtpsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	return o, fs.Parse(args)
}

// TestFlags pins qtpsim's command line: the defaults the usage comment
// documents, each flag landing in its own field, and malformed values
// or flags the tool never had being usage errors, not silent no-ops.
func TestFlags(t *testing.T) {
	o, err := parse()
	want := options{
		profName: "classic", rate: 125_000, g: 50_000, loss: 0.01,
		rtt: 40 * time.Millisecond, dur: 30 * time.Second, seed: 1,
		streams: 1, mix: "reliable,expiring", deadline: 200 * time.Millisecond, queue: 100,
	}
	if err != nil || *o != want {
		t.Errorf("no flags: %+v, %v; want %+v", *o, err, want)
	}
	o, err = parse("-profile", "qtpaf", "-g", "8e4", "-loss", "0.08", "-burst", "-rtt", "60ms",
		"-streams", "3", "-mix", "reliable,unordered", "-deadline", "300ms", "-cc", "bbr", "-queue", "40", "-seed", "7")
	want = options{
		profName: "qtpaf", rate: 125_000, g: 8e4, loss: 0.08, burst: true,
		rtt: 60 * time.Millisecond, dur: 30 * time.Second, seed: 7,
		streams: 3, mix: "reliable,unordered", deadline: 300 * time.Millisecond, cc: "bbr", queue: 40,
	}
	if err != nil || *o != want {
		t.Errorf("flow flags: %+v, %v; want %+v", *o, err, want)
	}
	if o, err := parse("-cc-matrix", "-assert-ratio", "2", "-dur", "5s"); err != nil || !o.ccMatrix || o.assertRatio != 2 || o.dur != 5*time.Second {
		t.Errorf("-cc-matrix -assert-ratio 2 -dur 5s: %+v, %v", *o, err)
	}
	for _, args := range [][]string{{"-rtt", "fast"}, {"-streams", "x"}, {"-loss"}, {"-shards", "2"}, {"-datapath", "mmsg"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v: parsed, want a usage error", args)
		}
	}
}
