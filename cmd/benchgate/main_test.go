package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEndpointFanout-4      	       1	1300000000 ns/op	  13.28 MB/s	        17.68 dgram/rxcall	         4.33 dgram/txcall	39798562 B/op	   82534 allocs/op
BenchmarkEndpointFanout-4      	       1	1200000000 ns/op	  14.00 MB/s	        18.40 dgram/rxcall	         4.50 dgram/txcall	39798562 B/op	   82534 allocs/op
BenchmarkEndpointFanoutNoBatch-4	       1	3395139268 ns/op	   4.94 MB/s	         1.00 dgram/rxcall	         1.00 dgram/txcall	39000000 B/op	   80000 allocs/op
PASS
`

const sampleHistory = `{
  "history": [
    {"pr": 2, "date": "batched IO",
     "BenchmarkEndpointFanout": {"ns_per_op": 999, "dgram_per_rx_syscall": 99}},
    {"pr": 3, "date": "sharded endpoints",
     "BenchmarkEndpointFanout": {"ns_per_op": 1263246778, "dgram_per_rx_syscall": 17.68},
     "BenchmarkShardedFanout": {"cmd": "..."}}
  ]
}`

func TestParseBenchRuns(t *testing.T) {
	runs, err := parseBenchRuns(strings.NewReader(sampleBench), "BenchmarkEndpointFanout")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("parsed %d runs, want 2 (NoBatch must not match)", len(runs))
	}
	if runs[0]["ns/op"] != 1.3e9 || runs[1]["ns/op"] != 1.2e9 {
		t.Fatalf("ns/op parsed wrong: %v %v", runs[0]["ns/op"], runs[1]["ns/op"])
	}
	if runs[0]["dgram/rxcall"] != 17.68 {
		t.Fatalf("dgram/rxcall parsed wrong: %v", runs[0]["dgram/rxcall"])
	}
	if none, _ := parseBenchRuns(strings.NewReader(sampleBench), "BenchmarkAbsent"); len(none) != 0 {
		t.Fatal("absent benchmark produced runs")
	}
}

func TestLatestBaseline(t *testing.T) {
	b, desc, err := latestBaseline([]byte(sampleHistory), "BenchmarkEndpointFanout")
	if err != nil {
		t.Fatal(err)
	}
	if b == nil || b.NsPerOp != 1263246778 || b.DgramPerRx != 17.68 {
		t.Fatalf("baseline = %+v, want the PR 3 (latest) entry", b)
	}
	if !strings.Contains(desc, "3") {
		t.Errorf("baseline description %q does not name the entry", desc)
	}
	if b, _, _ := latestBaseline([]byte(sampleHistory), "BenchmarkNever"); b != nil {
		t.Fatal("missing benchmark yielded a baseline")
	}
}

func TestCompareGate(t *testing.T) {
	runs, _ := parseBenchRuns(strings.NewReader(sampleBench), "BenchmarkEndpointFanout")
	base := &baseline{NsPerOp: 1263246778, DgramPerRx: 17.68}

	// Medians 1.3e9 ns/op (+2.9%) and 18.40 rx (+4.1%): within 25%.
	report, regressed := compare("BenchmarkEndpointFanout", runs, base, "pr 3", 0.25, 0.25)
	if regressed {
		t.Fatalf("within-threshold run regressed:\n%s", report)
	}
	if !strings.Contains(report, "PASS") {
		t.Fatalf("report lacks PASS:\n%s", report)
	}

	// >25% slower ns/op must fail…
	_, regressed = compare("BenchmarkEndpointFanout", runs,
		&baseline{NsPerOp: 9e8, DgramPerRx: 17.68}, "pr 3", 0.25, 0.25)
	if !regressed {
		t.Fatal("44% ns/op regression passed the gate")
	}
	// …unless the ns/op tolerance was widened for a cross-machine run,
	// in which case only a blowup beyond it bites.
	if _, r := compare("BenchmarkEndpointFanout", runs,
		&baseline{NsPerOp: 9e8, DgramPerRx: 17.68}, "pr 3", 0.25, 1.0); r {
		t.Fatal("44% ns/op failed the gate despite a 100% ns/op tolerance")
	}
	if _, r := compare("BenchmarkEndpointFanout", runs,
		&baseline{NsPerOp: 5e8, DgramPerRx: 17.68}, "pr 3", 0.25, 1.0); !r {
		t.Fatal("2.6x ns/op blowup passed the widened gate")
	}
	// …and so must >25% fewer datagrams per syscall.
	report, regressed = compare("BenchmarkEndpointFanout", runs,
		&baseline{NsPerOp: 1.3e9, DgramPerRx: 30}, "pr 3", 0.25, 0.25)
	if !regressed {
		t.Fatalf("rx-batch collapse passed the gate:\n%s", report)
	}

	// A faster run, or one with no baseline/result, always passes.
	if _, r := compare("BenchmarkEndpointFanout", runs,
		&baseline{NsPerOp: 9e9, DgramPerRx: 1}, "pr 3", 0.25, 0.25); r {
		t.Fatal("improvement flagged as regression")
	}
	if _, r := compare("BenchmarkEndpointFanout", nil, base, "pr 3", 0.25, 0.25); r {
		t.Fatal("skipped benchmark failed the gate")
	}
	if _, r := compare("BenchmarkEndpointFanout", runs, nil, "", 0.25, 0.25); r {
		t.Fatal("missing baseline failed the gate")
	}
}
