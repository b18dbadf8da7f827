// Command benchgate is the CI bench trend gate: it compares a fresh
// `go test -bench` run against the committed history in
// BENCH_endpoint.json and fails (exit 1) when a watched benchmark
// regressed beyond the threshold on a structural row — by default >25%
// fewer datagrams per receive syscall or >25% more allocations per op,
// each where the history commits a baseline for it. Those ratios
// describe what the code does and transfer across machines. Wall-clock
// rows (ns/op, handshakes/sec) are not compared: a committed time from
// another box, on shared runners, gates nothing at any tolerance that
// does not flap — timing claims go through the repo benchmark
// (BENCHMARK.json, paired runs). The comparison is written to -out for
// upload as a CI artifact.
//
// Usage:
//
//	benchgate -bench bench-smoke.txt [-history BENCH_endpoint.json] [-out bench-trend.txt] [-name BenchmarkEndpointFanout] [-threshold 0.25]
//
// Exit codes: 0 no regression, 1 regression detected, 2 input error
// (missing benchmark in the run, unreadable files). A benchmark that
// was skipped (e.g. the GSO fan-out on a kernel without UDP_SEGMENT)
// or has no committed baseline passes with a note rather than failing,
// so the gate cannot rot the matrix on less capable runners.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	bench := flag.String("bench", "", "go test -bench output to check (required)")
	history := flag.String("history", "BENCH_endpoint.json", "committed benchmark history")
	out := flag.String("out", "bench-trend.txt", "where to write the comparison report")
	name := flag.String("name", "BenchmarkEndpointFanout", "benchmark to gate")
	threshold := flag.Float64("threshold", 0.25, "relative regression that fails the gate")
	flag.Parse()
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -bench is required")
		os.Exit(2)
	}

	bf, err := os.Open(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	runs, err := parseBenchRuns(bf, *name)
	bf.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parse %s: %v\n", *bench, err)
		os.Exit(2)
	}

	hb, err := os.ReadFile(*history)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	base, baseDesc, err := latestBaseline(hb, *name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *history, err)
		os.Exit(2)
	}

	report, regressed := compare(*name, runs, base, baseDesc, *threshold)
	fmt.Print(report)
	if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

// parseBenchRuns extracts every result line for the named benchmark
// from go test -bench output. Each run becomes a metric map keyed by
// unit ("ns/op", "dgram/rxcall", ...); multiple -count runs yield
// multiple maps, which compare reduces by median so one noisy run on
// a shared box cannot flip the gate.
func parseBenchRuns(r io.Reader, name string) ([]map[string]float64, error) {
	var runs []map[string]float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			continue
		}
		// Benchmark names carry a -GOMAXPROCS suffix: exact-match the
		// base so Fanout never swallows FanoutNoBatch.
		bench := fields[0]
		if i := strings.LastIndexByte(bench, '-'); i > 0 {
			bench = bench[:i]
		}
		if bench != name {
			continue
		}
		m := make(map[string]float64)
		// fields[1] is the iteration count; after it, value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			m[fields[i+1]] = v
		}
		if _, ok := m["ns/op"]; ok {
			runs = append(runs, m)
		}
	}
	return runs, sc.Err()
}

// median of the named metric across runs; ok is false when no run
// carries it.
func median(runs []map[string]float64, unit string) (float64, bool) {
	var vs []float64
	for _, m := range runs {
		if v, ok := m[unit]; ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0, false
	}
	sort.Float64s(vs)
	return vs[len(vs)/2], true
}

// baseline is the committed reference for one benchmark: the metric
// names mirror the JSON history fields. Only structural rows are read;
// the wall-clock fields of older entries stay in the file as history.
type baseline struct {
	DgramPerRx  float64 `json:"dgram_per_rx_syscall"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// latestBaseline walks the history newest-first for the most recent
// entry carrying the named benchmark. A nil baseline (with no error)
// means no entry records it yet — the gate passes with a note, so a
// brand-new benchmark can land before its first committed numbers.
func latestBaseline(historyJSON []byte, name string) (*baseline, string, error) {
	var doc struct {
		History []map[string]json.RawMessage `json:"history"`
	}
	if err := json.Unmarshal(historyJSON, &doc); err != nil {
		return nil, "", err
	}
	for i := len(doc.History) - 1; i >= 0; i-- {
		raw, ok := doc.History[i][name]
		if !ok {
			continue
		}
		var b baseline
		if err := json.Unmarshal(raw, &b); err != nil || b == (baseline{}) {
			continue
		}
		desc := "(unlabeled entry)"
		var label struct {
			PR   json.Number `json:"pr"`
			Date string      `json:"date"`
		}
		if meta, ok := doc.History[i]["pr"]; ok {
			label.PR = ""
			_ = json.Unmarshal(meta, &label.PR)
		}
		if d, ok := doc.History[i]["date"]; ok {
			_ = json.Unmarshal(d, &label.Date)
		}
		if label.PR != "" || label.Date != "" {
			desc = fmt.Sprintf("pr %s: %s", label.PR, label.Date)
		}
		return &b, desc, nil
	}
	return nil, "", nil
}

// compare renders the trend report and decides the gate. Regression
// rules: median dgram/rxcall below baseline, or median allocs/op above
// it, by more than threshold. Improvements and missing data pass (with
// a note), so the gate only ever bites on a measured regression against
// committed numbers.
func compare(name string, runs []map[string]float64, base *baseline, baseDesc string, threshold float64) (string, bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "benchgate: %s, threshold %.0f%%\n", name, threshold*100)
	if len(runs) == 0 {
		fmt.Fprintf(&b, "  no result in this run (benchmark skipped or filtered); gate passes\n")
		return b.String(), false
	}
	if base == nil {
		fmt.Fprintf(&b, "  no committed baseline in history; gate passes (commit numbers to arm it)\n")
		return b.String(), false
	}
	fmt.Fprintf(&b, "  baseline: %s\n", baseDesc)
	regressed := false
	check := func(unit string, baseVal float64, lowerIsBetter bool) {
		cur, ok := median(runs, unit)
		if !ok || baseVal == 0 {
			fmt.Fprintf(&b, "  %-14s no committed baseline or no current value; skipped\n", unit)
			return
		}
		delta := (cur - baseVal) / baseVal
		bad := delta > threshold
		if !lowerIsBetter {
			bad = delta < -threshold
		}
		verdict := "ok"
		if bad {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(&b, "  %-14s baseline %12.2f  current %12.2f  (%+6.1f%%, tolerance %.0f%%)  %s\n",
			unit, baseVal, cur, delta*100, threshold*100, verdict)
	}
	check("dgram/rxcall", base.DgramPerRx, false)
	check("allocs/op", base.AllocsPerOp, true)
	if regressed {
		fmt.Fprintf(&b, "  FAIL: regression beyond tolerance against committed history\n")
	} else {
		fmt.Fprintf(&b, "  PASS\n")
	}
	return b.String(), regressed
}
