// Command benchmark is the repository's benchmark: it runs one workload
// per invocation entirely inside this process, verifies every delivered
// byte, prints every metric by name with its unit, and exits.
//
//	go run -C benchmark . --workload bulk_sealed --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . --compare a.out b.out
//
// README.md in this directory defines the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// endToEnd and perLayer list every metric the benchmark reports with
// its unit; BENCHMARK.json at the repository root carries the same two
// lists.
var (
	endToEnd = []metricDef{
		{name: "goodput_MBps", unit: "MB/s", better: "higher", bound: 0.25},
		{name: "cpu_ns_per_KiB", unit: "ns", better: "lower", bound: 0.25},
		{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
		{name: "rss_mb", unit: "MB", better: "lower", bound: 0.25},
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	}
	perLayer = []metricDef{
		{name: "qcrypto.seal_ns_1400", unit: "ns"}, {name: "qcrypto.open_ns_1400", unit: "ns"},
		{name: "qcrypto.seal_ns_256", unit: "ns"}, {name: "qcrypto.open_ns_256", unit: "ns"},
		{name: "qcrypto.handshake_us", unit: "us"},
		{name: "packet.header_ns", unit: "ns"}, {name: "packet.sack_ns", unit: "ns"},
		{name: "bufpool.getput_ns", unit: "ns"}, {name: "bufpool.chunk_getput_ns", unit: "ns"},
		{name: "seqspace.intervalset_add_ns", unit: "ns"}, {name: "seqspace.intervalset_gaps_ns", unit: "ns"},
		{name: "sack.sendbuf_cycle_ns", unit: "ns"}, {name: "sack.sendbuf_lossy_cycle_ns", unit: "ns"},
		{name: "sack.reassembler_inorder_ns", unit: "ns"}, {name: "sack.reassembler_holes_ns", unit: "ns"},
		{name: "tfrc.receiver_packet_ns", unit: "ns"}, {name: "tfrc.sender_feedback_ns", unit: "ns"}, {name: "tfrc.estimator_ack_ns", unit: "ns"},
		{name: "bbr.sent_acked_ns", unit: "ns"},
		{name: "netsim.event_ns", unit: "ns"}, {name: "netsim.self_share", unit: "share"},
		{name: "qtp.pair_ns_per_frame", unit: "ns"}, {name: "qtp.pair_ns_per_frame_multi", unit: "ns"},
		{name: "qtp.sender_poll_ns", unit: "ns"}, {name: "qtp.sender_poll_calls", unit: "count"},
		{name: "qtp.sender_handle_ns", unit: "ns"}, {name: "qtp.sender_handle_calls", unit: "count"},
		{name: "qtp.receiver_handle_ns", unit: "ns"}, {name: "qtp.receiver_handle_calls", unit: "count"},
		{name: "qtp.receiver_poll_ns", unit: "ns"}, {name: "qtp.receiver_poll_calls", unit: "count"},
		{name: "qtp.cost_growth_ratio", unit: "ratio"},
		{name: "qtp.retrans_share", unit: "share"}, {name: "qtp.acks_per_data_frame", unit: "ratio"}, {name: "qtp.decode_errors", unit: "count"},
		{name: "qtpnet.cpu_ns_per_dgram", unit: "ns"},
		{name: "qtpnet.dgrams_per_rx_syscall", unit: "ratio"}, {name: "qtpnet.dgrams_per_tx_syscall", unit: "ratio"},
		{name: "qtpnet.wakeups_per_MiB", unit: "1/MiB"},
		{name: "qtpnet.gso_segs_per_train", unit: "ratio"}, {name: "qtpnet.gro_merged_share", unit: "share"},
		{name: "qtpnet.write_blocked_share", unit: "share"}, {name: "qtpnet.read_blocked_share", unit: "share"},
		{name: "qtpnet.rx_drops", unit: "count"}, {name: "qtpnet.noroute", unit: "count"},
		{name: "qtpnet.send_errs", unit: "count"}, {name: "qtpnet.open_failures", unit: "count"},
		{name: "qtpnet.dial_ms_p50", unit: "ms"},
		{name: "qtpnet.ring_goodput_MBps", unit: "MB/s"}, {name: "qtpnet.ring_cpu_ns_per_KiB", unit: "ns"},
		{name: "qtpnet.backlogged_goodput_MBps", unit: "MB/s"}, {name: "qtpnet.backlogged_cpu_ns_per_KiB", unit: "ns"},
		{name: "qtpnet.paced_latency_p50_ms", unit: "ms"}, {name: "qtpnet.paced_cpu_ns_per_KiB", unit: "ns"},
		{name: "process.allocs_per_KiB", unit: "1/KiB"}, {name: "process.alloc_bytes_per_KiB", unit: "B/KiB"},
		{name: "process.gc_cpu_share", unit: "share"}, {name: "process.sys_cpu_share", unit: "share"},
		{name: "process.heap_live_mb", unit: "MB"}, {name: "process.peak_rss_mb", unit: "MB"},
		{name: "harness.latency_p99_ms", unit: "ms"}, {name: "harness.latency_samples", unit: "count"},
		{name: "harness.generator_late_ms_max", unit: "ms"}, {name: "harness.trace_overhead_share", unit: "share"},
		{name: "harness.core_contention_p50", unit: "ratio"}, {name: "harness.vcpu_moves", unit: "count"},
		{name: "budget.layers_ns_per_dgram", unit: "ns"}, {name: "budget.e2e_ns_per_dgram", unit: "ns"},
		{name: "budget.unexplained_share", unit: "share"},
	}
)

// metricDef names a metric; better and bound are set on the gated,
// end-to-end ones only.
type metricDef struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // share of the parent's median it may worsen by
}

// workloadNames is the order BENCHMARK.json lists the workloads in.
var workloadNames = []string{"bulk_sealed", "bulk_clear", "msg_pingpong", "sim_lossy"}

func udpWorkload(name string) (udpSpec, bool) {
	switch name {
	case "bulk_sealed":
		return udpSpec{profile: core.QTPAF(serverBudget), opSize: blockSize, streams: 1, inFlight: bulkInFlight}, true
	case "bulk_clear":
		return udpSpec{profile: core.QTPAF(serverBudget), clear: true, opSize: blockSize, streams: 1, inFlight: bulkInFlight}, true
	case "msg_pingpong":
		p := core.QTPAF(serverBudget)
		p.MaxStreams = packet.MaxStreams
		return udpSpec{profile: p, opSize: msgSize, streams: 2, inFlight: 2}, true
	}
	return udpSpec{}, false
}

// pacedMessages is the open loop msg_pingpong's traced run adds one
// window of: a 256 B message every 250 us (4000 a second, 1.02 MB/s)
// whatever the transport does, under an 8 MB/s target so that the
// transport never queues. Its generator waits in a blocking nanosleep as
// a timer or a NIC would, so it takes a second P: on one, every such
// wait parks the whole stack until the runtime's monitor notices.
func pacedMessages() udpSpec {
	p := core.QTPAF(8e6)
	p.MaxStreams = packet.MaxStreams
	return udpSpec{profile: p, opSize: msgSize, streams: 2, interval: 250 * time.Microsecond}
}

const (
	// A real-socket run's --seconds are split over udpLegCount windows.
	udpLegCount  = 8
	setupsPerLeg = 8                      // setup_s is the median of all of a run's set-ups
	legWarmup    = 500 * time.Millisecond // at load, before a leg's window opens
	simPasses    = 3                      // identical passes of sim_lossy; each is also a set-up
	simWarmup    = 10 * time.Second       // virtual
	simStretch   = 3                      // virtual seconds of a sim_lossy pass's window per --seconds
	dialCount    = 50
)

// outcome is what one run found.
type outcome struct {
	attempted, failed int64
	corrupt           bool // a reliable stream delivered wrong bytes
	e2e, layer        map[string]float64
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// dumpSlices makes a run print its slices.
var dumpSlices bool

// phase names what the run is doing, for the watchdog.
var phase atomic.Value

func enter(p string) { phase.Store(p) }

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "drives the payload pattern and sim_lossy's loss stream")
	seconds := flag.Int("seconds", 20, "length of the measured windows together (sim_lossy: a third of each pass's virtual window)")
	trace := flag.Int("trace", 0, "1: harness spans on, report the per-layer metrics; 0: report the end-to-end metrics")
	compare := flag.Bool("compare", false, "compare two files of run outputs: --compare a.out b.out")
	flag.BoolVar(&dumpSlices, "slices", false, "print every slice as the clocks read it, with its contention index (to refit the slowdown curve)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "--compare takes two files of run outputs")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(2, err.Error())
		}
		return
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal(2, "usage: --workload <name> [--seed n] [--seconds 1..60] [--trace 0|1]")
	}
	traced := *trace == 1
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "QTPNET_") {
			fatal(2, "refusing to run with "+kv+" set: it would change the data path under test")
		}
	}
	enter("start")
	limit := time.Duration(70+*seconds) * time.Second
	watchdog := time.AfterFunc(limit, func() {
		fatal(3, fmt.Sprintf("watchdog: still in phase %q after %v", phase.Load(), limit))
	})
	defer watchdog.Stop()

	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	// One P unless the caller asks otherwise: a process that needs one
	// vCPU at a time can be kept on the less disturbed of the two, and
	// two busy Ps on this kind of machine cost 45% more CPU per KiB,
	// delivered 15% less and varied twice as much from run to run (a
	// wake-up across vCPUs waits for the host). GOMAXPROCS=2 in the
	// environment measures the stack on both, unsteered.
	spec, onSockets := udpWorkload(*workload)
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	if runtime.GOMAXPROCS(0) > 1 {
		steer.release()
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease())

	var out *outcome
	var err error
	if onSockets {
		out, err = runUDP(*workload, spec, *seed, *seconds, traced)
	} else if *workload == "sim_lossy" {
		out, err = runSim(*seed, *seconds, traced)
	} else {
		fatal(2, "unknown workload "+*workload)
	}
	if err == nil && probeFailure != nil {
		err = probeFailure
	}
	if err != nil {
		fatal(1, err.Error())
	}
	enter("report")
	fmt.Printf("# goroutines_at_exit=%d\n", settleGoroutines())
	if !report(os.Stdout, out, traced) {
		os.Exit(1)
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// settleGoroutines gives closed endpoints a moment to wind their loops
// down and returns how many goroutines remain (1 is main alone).
func settleGoroutines() int {
	for i := 0; i < 50 && runtime.NumGoroutine() > 1; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// report prints the metrics by name, then the result object as the
// last line. It returns false when the run must exit non-zero.
func report(w io.Writer, out *outcome, traced bool) bool {
	defs, values := endToEnd, out.e2e
	if traced {
		// The traced run's own end-to-end numbers, for reading the trace
		// overhead; gated numbers always come from untraced runs.
		for _, d := range endToEnd {
			fmt.Fprintf(w, "# traced %s %.6g %s\n", d.name, out.e2e[d.name], d.unit)
		}
		defs, values = perLayer, out.layer
	}
	res := result{
		Correct:   !out.corrupt && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured\n", d.name)
			return false
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return !out.corrupt
}

// udpLegs is the real-socket part of a run: legs measured windows, each
// on a fresh pair of endpoints and a fresh connection, opened
// setupsPerLeg times (the last one is kept) and warmed up at load
// before its window opens. What CPU the same traffic costs depends on
// things decided once per connection, so one long window measures that
// draw and several short ones measure the stack; the legs also give
// setup_s its repetitions. A traced run puts spans around every Write
// and Read on every other leg, so that the legs without them price the
// tracing, and on its last leg takes the live heap and the dial series
// while the endpoints are still up.
type udpLegs struct {
	legs               []leg
	setups             []setup // every set-up of the run
	endpoints          endpointCounters
	conns              connCounters
	attempted, failed  int64
	corrupt            bool
	lateMS             float64   // worst generator lateness inside a window
	write, read        spanTotal // spans inside the windows; read is summed over the readers
	readers            int
	uring              bool // the data path the legs ran on was io_uring
	heapLiveMB, dialMS float64
}

func runLegs(spec udpSpec, pat pattern, uring bool, legs, setupsPerLeg int, warmup, length time.Duration, traced bool) (*udpLegs, error) {
	u := &udpLegs{readers: spec.streams}
	for i := 0; i < legs; i++ {
		enter(fmt.Sprintf("leg %d set-up", i))
		var s *udpSession
		for rep := 0; rep < setupsPerLeg; rep++ {
			if s != nil {
				s.close()
			}
			t := nowNS()
			var err error
			if s, err = openSession(spec, pat, uring); err != nil {
				return nil, fmt.Errorf("leg %d set-up %d: %w", i, rep, err)
			}
			u.setups = append(u.setups, setup{seconds: float64(nowNS()-t) / 1e9})
		}
		err := u.runLeg(s, i, warmup, length, traced && i%2 == 1, traced && i == legs-1)
		s.close()
		if err != nil {
			return nil, fmt.Errorf("leg %d: %w", i, err)
		}
		// The core as it read when the leg's window opened, right after
		// its set-ups.
		for k := len(u.setups) - setupsPerLeg; k < len(u.setups); k++ {
			u.setups[k].core = u.legs[i].w.core[0]
		}
	}
	return u, nil
}

func (u *udpLegs) runLeg(s *udpSession, i int, warmup, length time.Duration, traced, last bool) error {
	if i == 0 {
		fmt.Printf("# rung: uring=%v deferred=%v gso=%v gro=%v txtime=%v encrypted=%v\n",
			s.srv.UringEnabled(), s.srv.UringDeferred(), s.cli.GSOEnabled(), s.srv.GROEnabled(),
			s.cli.TxTimeEnabled(), !s.spec.clear)
		u.uring = s.srv.UringEnabled()
	}
	enter(fmt.Sprintf("leg %d window", i))
	t := s.start(traced)
	w := udpWindow(t, warmup, length, &u.endpoints, &u.conns)
	enter(fmt.Sprintf("leg %d drain", i))
	t.finish()
	if t.writeErr != nil {
		return fmt.Errorf("write: %w", t.writeErr)
	}
	u.legs = append(u.legs, newLeg(w, records(s.vers), s.spec.opSize))
	attempted, failed, corrupt := accounting(int64(t.written), s.vers)
	u.attempted += attempted
	u.failed += failed
	u.corrupt = u.corrupt || corrupt
	u.lateMS = max(u.lateMS, t.maxLateMS(w.t0(), w.t1()))
	wr := t.writerTr.totals(w.t0(), w.t1())[spWrite]
	u.write.count += wr.count
	u.write.total += wr.total
	for _, tr := range t.readerTr {
		rd := tr.totals(w.t0(), w.t1())[spRead]
		u.read.count += rd.count
		u.read.total += rd.total
	}
	if !last {
		return nil
	}
	enter("heap")
	u.heapLiveMB = heapLiveMB()
	enter("dial")
	dials, err := s.dialMS(dialCount)
	u.dialMS = median(dials)
	return err
}

// setup is one timed set-up and the probe reading of the core it ran
// on, taken right after it.
type setup struct{ seconds, core float64 }

// setupSeconds is setup_s: the median of the set-ups, each scaled back
// like a slice (a set-up is a handshake and a first operation on real
// sockets, ten virtual seconds of simulation on sim_lossy: computing,
// either way).
func setupSeconds(setups []setup) float64 {
	scaled := make([]float64, len(setups))
	for i, s := range setups {
		scaled[i] = s.seconds / slowdown(ratio(s.core, steer.best), busySlowdown)
	}
	fmt.Printf("# set-ups, as the clock read them: median %.6g s of %d\n", median(seconds(setups)), len(setups))
	return median(scaled)
}

func seconds(setups []setup) []float64 {
	out := make([]float64, len(setups))
	for i, s := range setups {
		out[i] = s.seconds
	}
	return out
}

// heapLiveMB is the heap in use after two collections.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runUDP runs one real-socket workload. A traced run adds the probes
// and the windows that are recorded and never gated: the io_uring rung
// (bulk_sealed), the writer back to back (bulk_*), the paced open loop
// (msg_pingpong).
func runUDP(name string, spec udpSpec, seed int64, seconds int, traced bool) (*outcome, error) {
	pat := newPattern(seed)
	length := time.Duration(seconds) * time.Second / udpLegCount
	u, err := runLegs(spec, pat, false, udpLegCount, setupsPerLeg, legWarmup, length, traced)
	if err != nil {
		return nil, err
	}
	sum := summarise(u.legs, busySlowdown)
	sum.describe()
	for _, l := range u.legs {
		l.dump()
	}
	out := &outcome{e2e: sum.e2e, layer: sum.layer, attempted: u.attempted, failed: u.failed, corrupt: u.corrupt}
	out.e2e["setup_s"] = setupSeconds(u.setups)
	rows := u.endpoints.rows(sum)
	merge(rows, u.conns.rows())
	fmt.Printf("# windows: rx_drops=%.0f noroute=%.0f send_errs=%.0f open_failures=%.0f decode_errors=%.0f retrans_share=%.4f\n",
		rows["qtpnet.rx_drops"], rows["qtpnet.noroute"], rows["qtpnet.send_errs"],
		rows["qtpnet.open_failures"], rows["qtp.decode_errors"], rows["qtp.retrans_share"])
	if !traced {
		return out, nil
	}

	merge(out.layer, rows)
	out.layer["harness.vcpu_moves"] = float64(steer.moves)
	var on, off []leg
	for i, l := range u.legs {
		if i%2 == 1 {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	out.layer["harness.trace_overhead_share"] = ratio(
		summarise(on, busySlowdown).e2e["cpu_ns_per_KiB"], summarise(off, busySlowdown).e2e["cpu_ns_per_KiB"]) - 1
	wall := pool(on).wall
	out.layer["qtpnet.write_blocked_share"] = float64(u.write.total) / wall
	out.layer["qtpnet.read_blocked_share"] = float64(u.read.total) / (wall * float64(u.readers))
	out.layer["process.heap_live_mb"] = u.heapLiveMB
	out.layer["qtpnet.dial_ms_p50"] = u.dialMS
	// Rows only the simulator's pump can fill.
	zeroRows(out.layer, "qtp.sender_", "qtp.receiver_", "netsim.self_share")

	// The extra windows, a quarter as long as the gated ones together,
	// each on its own fresh endpoints. Their operations are verified and
	// their failures printed, not added to the run's. A pair reads 0 on a
	// workload it does not belong to.
	extra := func(what string, spec udpSpec, uring bool) (*udpLegs, summary, error) {
		enter(what)
		x, err := runLegs(spec, pat, uring, 1, 1, legWarmup, time.Duration(seconds)*time.Second/4, false)
		if err != nil {
			return nil, summary{}, fmt.Errorf("%s: %w", what, err)
		}
		fmt.Printf("# %s: %d of %d operations failed\n", what, x.failed, x.attempted)
		return x, summarise(x.legs, 0), nil
	}
	zeroRows(out.layer, "qtpnet.ring_", "qtpnet.backlogged_", "qtpnet.paced_", "harness.generator_late_ms_max")
	if name == "bulk_sealed" {
		// The data-path ladder left free to pick io_uring: on this kernel
		// that rung is bimodal, so a gate cannot sit on it. Where the
		// kernel offers no io_uring the pair stays 0.
		x, s, err := extra("io_uring pass", spec, true)
		if err != nil {
			return nil, err
		}
		if x.uring {
			out.layer["qtpnet.ring_goodput_MBps"], out.layer["qtpnet.ring_cpu_ns_per_KiB"] = s.e2e["goodput_MBps"], s.e2e["cpu_ns_per_KiB"]
		}
	}
	if spec.opSize == blockSize {
		// The writer back to back, as a bulk sender that waits for nobody
		// writes: the blocks fill the connection's send backlog (see
		// bulkInFlight).
		free := spec
		free.inFlight = 0
		_, s, err := extra("backlogged pass", free, false)
		if err != nil {
			return nil, err
		}
		out.layer["qtpnet.backlogged_goodput_MBps"], out.layer["qtpnet.backlogged_cpu_ns_per_KiB"] = s.e2e["goodput_MBps"], s.e2e["cpu_ns_per_KiB"]
	} else {
		paced := pacedMessages()
		if os.Getenv("GOMAXPROCS") == "" {
			runtime.GOMAXPROCS(2) // see pacedMessages
		}
		steer.release()
		x, s, err := extra("paced pass", paced, false)
		if err != nil {
			return nil, err
		}
		out.layer["qtpnet.paced_latency_p50_ms"], out.layer["qtpnet.paced_cpu_ns_per_KiB"] = s.e2e["latency_p50_ms"], s.e2e["cpu_ns_per_KiB"]
		out.layer["harness.generator_late_ms_max"] = x.lateMS
	}

	enter("probes")
	merge(out.layer, runProbes())
	budget(out.layer, rows["qtpnet.cpu_ns_per_dgram"], spec.opSize, !spec.clear, true, spec.streams > 1)
	return out, nil
}

// zeroRows sets every per-layer metric whose name starts with one of
// the prefixes to 0: the row does not exist on this workload.
func zeroRows(layer map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				layer[d.name] = 0
			}
		}
	}
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// budget adds the reconciliation rows: the isolated layer costs a
// datagram crosses, summed, against the process CPU one delivered
// datagram cost end to end; the remainder is a row, not hidden.
func budget(layer map[string]float64, e2e float64, opSize int, sealed, sockets, multi bool) {
	pair, seal, open := "qtp.pair_ns_per_frame", "qcrypto.seal_ns_1400", "qcrypto.open_ns_1400"
	if multi {
		pair = "qtp.pair_ns_per_frame_multi"
	}
	if opSize == msgSize {
		seal, open = "qcrypto.seal_ns_256", "qcrypto.open_ns_256"
	}
	sum := layer[pair] + layer["packet.header_ns"] + layer["packet.sack_ns"]
	if sockets {
		sum += 2 * layer["bufpool.getput_ns"]
	}
	if sealed {
		sum += layer[seal] + layer[open]
	}
	layer["budget.layers_ns_per_dgram"] = sum
	layer["budget.e2e_ns_per_dgram"] = e2e
	layer["budget.unexplained_share"] = ratio(e2e-sum, e2e)
}

// simSliceTraced says which of the traced pass's slices (one virtual
// second each) have the harness's spans on: every fourth. A span around
// every call of a whole window is three million spans, whose memory
// alone costs more than the calls they time; a quarter of them, spread
// evenly, see the same mix of cheap early and dear late seconds.
func simSliceTraced(slice int) bool { return slice%4 == 2 }

// simWindow measures length of virtual time, in slices of one virtual
// second, on a path already run to virtual time from; with the
// harness's spans on, in the slices that have them, if traced.
func simWindow(r *simRun, from, length time.Duration, traced bool) (*window, connCounters, *tracer) {
	snd0, rcv0 := r.snd.Stats(), r.rcv.Stats()
	slices := int(length / time.Second)
	var tr *tracer
	if traced {
		// Some 57 000 spans per virtual second.
		tr = newTracer(70e3 * (slices/4 + 1))
	}
	w := measureWindow(int64(from), slices, func(slice int) int64 {
		if traced && simSliceTraced(slice) {
			r.tr = tr
			tr.begin(spWindow)
		}
		r.sim.Run(from + time.Duration(slice)*time.Second)
		if r.tr != nil {
			tr.end()
			r.tr = nil
		}
		return int64(r.sim.Now())
	})
	var conn connCounters
	conn.add(snd0, rcv0, r.snd.Stats(), r.rcv.Stats())
	return w, conn, tr
}

// steadyPass folds the windows of identical passes into one. The passes
// execute the same instructions on the same data, so what differs
// between them is the machine: every slice is charged the median, over
// the passes (skipped slices aside), of the CPU it took scaled back by
// slowdown(its contention index, busy). Everything but the CPU marks is
// the first pass's.
func steadyPass(passes []*window, busy float64, skip func(pass, slice int) bool) *window {
	w := *passes[0]
	w.marks = append([]mark(nil), w.marks...)
	for i := 1; i < len(w.marks); i++ {
		var cpu []float64
		for p, pw := range passes {
			if !skip(p, i) {
				x := ratio((pw.core[i-1]+pw.core[i])/2, steer.best)
				cpu = append(cpu, float64(pw.marks[i].cpu-pw.marks[i-1].cpu)/slowdown(x, busy))
			}
		}
		w.marks[i].cpu = w.marks[i-1].cpu + int64(median(cpu))
	}
	return &w
}

// sameRecords reports whether two passes delivered the same operations
// at the same virtual times.
func sameRecords(a, b [][]opRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runSim runs sim_lossy: simPasses times over, the path is built from
// the seed, warmed up (that is a set-up), run for the virtual window and
// drained. The passes are the same computation, which is checked; the
// run reports the window steadyPass makes of them. A traced run has the
// harness's spans on in a quarter of its last pass's slices and prices
// them against the other passes.
func runSim(seed int64, seconds int, traced bool) (*outcome, error) {
	length := time.Duration(seconds) * simStretch * time.Second
	out := &outcome{}
	var r *simRun
	var setups []setup
	var windows []*window
	var recs [][]opRecord
	var conn connCounters
	var tr *tracer
	for pass := 0; pass < simPasses; pass++ {
		enter(fmt.Sprintf("pass %d set-up", pass))
		t := nowNS()
		var err error
		if r, err = newSimRun(seed, lossyPath); err != nil {
			return nil, err
		}
		r.sim.Run(simWarmup)
		elapsed := float64(nowNS()-t) / 1e9

		enter(fmt.Sprintf("pass %d window", pass))
		var w *window
		w, conn, tr = simWindow(r, simWarmup, length, traced && pass == simPasses-1)
		windows = append(windows, w)
		setups = append(setups, setup{elapsed, w.core[0]})
		enter(fmt.Sprintf("pass %d drain", pass))
		r.finish(waitLimit)

		attempted, failed, corrupt := accounting(int64(r.nextOp), r.vers)
		out.attempted += attempted
		out.failed += failed
		out.corrupt = out.corrupt || corrupt
		if pass == 0 {
			recs = records(r.vers)
		} else if !sameRecords(recs, records(r.vers)) {
			return nil, fmt.Errorf("sim_lossy is not deterministic: pass %d delivered differently from pass 0", pass)
		}
	}
	last := windows[simPasses-1]
	w := steadyPass(windows, busySlowdown, func(pass, slice int) bool {
		return traced && pass == simPasses-1 && simSliceTraced(slice)
	})
	sum := summarise([]leg{newLeg(w, recs, blockSize)}, 0)
	out.e2e, out.layer = sum.e2e, sum.layer
	out.e2e["setup_s"] = setupSeconds(setups)
	var contention []float64
	for _, pw := range windows {
		l := newLeg(pw, recs, blockSize)
		fmt.Printf("# pass as the clock read it: cpu_ns_per_KiB %.0f\n", l.total.cost())
		l.dump()
		for _, c := range l.slices {
			contention = append(contention, ratio(c.core, steer.best))
		}
	}
	sort.Float64s(contention)
	steer.describe(contention)
	out.layer["harness.core_contention_p50"] = percentile(contention, 0.5)
	rows := conn.rows()
	fmt.Printf("# window: fwd queue_drops=%d medium_drops=%d retrans_share=%.4f decode_errors=%.0f\n",
		r.fwd.QueueDrops.Packets, r.fwd.MediumDrops.Packets, rows["qtp.retrans_share"], conn.decodeErrors)
	if !traced {
		return out, nil
	}

	merge(out.layer, rows)
	out.layer["harness.vcpu_moves"] = float64(steer.moves)
	tot := tr.totals(last.open.wall, last.close.wall)
	for i, t := range tot {
		fmt.Printf("# span %-16s calls=%-8d total_ms=%-10.1f self_ms=%.1f\n",
			spanNames[i], t.count, float64(t.total)/1e6, float64(t.self)/1e6)
	}
	for name, sp := range map[string]spanName{
		"qtp.sender_poll": spSenderPoll, "qtp.sender_handle": spSenderHandle,
		"qtp.receiver_handle": spReceiverHandle, "qtp.receiver_poll": spReceiverPoll,
	} {
		out.layer[name+"_ns"] = ratio(float64(tot[sp].self), float64(tot[sp].count))
		out.layer[name+"_calls"] = float64(tot[sp].count)
	}
	out.layer["netsim.self_share"] = ratio(float64(tot[spWindow].self), float64(tot[spWindow].total))
	// The slices with spans, scaled back like the others, against the
	// same slices without.
	var on, off float64
	for i := 1; i < len(w.marks); i++ {
		if simSliceTraced(i) {
			x := ratio((last.core[i-1]+last.core[i])/2, steer.best)
			on += float64(last.marks[i].cpu-last.marks[i-1].cpu) / slowdown(x, busySlowdown)
			off += float64(w.marks[i].cpu - w.marks[i-1].cpu)
		}
	}
	out.layer["harness.trace_overhead_share"] = ratio(on, off) - 1
	// Rows only real sockets can fill.
	zeroRows(out.layer, "qtpnet.", "harness.generator_late_ms_max")
	enter("heap")
	out.layer["process.heap_live_mb"] = heapLiveMB()

	enter("probes")
	merge(out.layer, runProbes())
	budget(out.layer, ratio(sum.cpu, conn.framesIn), blockSize, false, false, false)
	return out, nil
}
