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
     "BenchmarkEndpointFanout": {"ns_per_op": 1263246778, "dgram_per_rx_syscall": 17.68, "allocs_per_op": 80000},
     "BenchmarkShardedFanout": {"cmd": "..."},
     "BenchmarkWallClockOnly": {"ns_per_op": 5, "handshakes_per_sec": 7}}
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
	if runs[0]["dgram/rxcall"] != 17.68 || runs[0]["allocs/op"] != 82534 {
		t.Fatalf("structural rows parsed wrong: %v", runs[0])
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
	if b == nil || b.DgramPerRx != 17.68 || b.AllocsPerOp != 80000 {
		t.Fatalf("baseline = %+v, want the PR 3 (latest) entry", b)
	}
	if !strings.Contains(desc, "3") {
		t.Errorf("baseline description %q does not name the entry", desc)
	}
	if b, _, _ := latestBaseline([]byte(sampleHistory), "BenchmarkNever"); b != nil {
		t.Fatal("missing benchmark yielded a baseline")
	}
	// An entry that commits only wall-clock rows arms nothing.
	if b, _, _ := latestBaseline([]byte(sampleHistory), "BenchmarkWallClockOnly"); b != nil {
		t.Fatalf("wall-clock-only entry yielded a baseline: %+v", b)
	}
}

func TestCompareGate(t *testing.T) {
	runs, _ := parseBenchRuns(strings.NewReader(sampleBench), "BenchmarkEndpointFanout")
	base := &baseline{DgramPerRx: 17.68, AllocsPerOp: 80000}

	// Medians 18.40 rx (+4.1%) and 82534 allocs (+3.2%): within 25%.
	report, regressed := compare("BenchmarkEndpointFanout", runs, base, "pr 3", 0.25)
	if regressed {
		t.Fatalf("within-threshold run regressed:\n%s", report)
	}
	if !strings.Contains(report, "PASS") {
		t.Fatalf("report lacks PASS:\n%s", report)
	}
	// Wall-clock rows are not compared, whatever the run's ns/op.
	if strings.Contains(report, "ns/op") || strings.Contains(report, "handshakes/sec") {
		t.Fatalf("report compares a wall-clock row:\n%s", report)
	}

	// >25% fewer datagrams per syscall must fail…
	report, regressed = compare("BenchmarkEndpointFanout", runs,
		&baseline{DgramPerRx: 30, AllocsPerOp: 80000}, "pr 3", 0.25)
	if !regressed {
		t.Fatalf("rx-batch collapse passed the gate:\n%s", report)
	}
	// …and so must >25% more allocations per op.
	report, regressed = compare("BenchmarkEndpointFanout", runs,
		&baseline{DgramPerRx: 17.68, AllocsPerOp: 60000}, "pr 3", 0.25)
	if !regressed {
		t.Fatalf("allocation blowup passed the gate:\n%s", report)
	}

	// A better run, a row the history does not commit, or a run with no
	// baseline/result at all, always passes.
	if _, r := compare("BenchmarkEndpointFanout", runs,
		&baseline{DgramPerRx: 1, AllocsPerOp: 9e9}, "pr 3", 0.25); r {
		t.Fatal("improvement flagged as regression")
	}
	if _, r := compare("BenchmarkEndpointFanout", runs,
		&baseline{AllocsPerOp: 80000}, "pr 3", 0.25); r {
		t.Fatal("uncommitted dgram/rxcall row failed the gate")
	}
	if _, r := compare("BenchmarkEndpointFanout", nil, base, "pr 3", 0.25); r {
		t.Fatal("skipped benchmark failed the gate")
	}
	if _, r := compare("BenchmarkEndpointFanout", runs, nil, "", 0.25); r {
		t.Fatal("missing baseline failed the gate")
	}
}
