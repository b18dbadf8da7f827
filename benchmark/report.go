package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/qtp"
	"repro/internal/qtpnet"
)

// measureWindow marks one measured window of the given number of
// slices. advance(i) takes the workload to the end of slice i (by
// sleeping, on real sockets; by running the simulator, in virtual time)
// and returns the records' clock there; start is that clock at the
// opening. Between slices the core is read and the process steered; the
// CPU that takes is inside the window, the same for every run.
func measureWindow(start int64, slices int, advance func(slice int) int64) *window {
	w := &window{}
	rss := startRSSSampler()
	w.core = append(w.core, steer.step())
	w.open = takeSnapshot()
	w.marks = append(w.marks, mark{start, w.open.cpu})
	for i := 1; i <= slices; i++ {
		t := advance(i)
		cpu, _ := cpuNS()
		w.marks = append(w.marks, mark{t, cpu})
		w.core = append(w.core, steer.step())
	}
	w.close = takeSnapshot()
	w.rss = rss.stopped()
	return w
}

// sliceLen is the length of one slice of a window on the host's clock.
// sim_lossy's slices are one virtual second.
const sliceLen = 100 * time.Millisecond

// pooled is what a slice, a leg or a set of legs adds up to.
type pooled struct {
	kib  float64 // payload delivered intact
	cpu  float64 // process CPU, ns
	wall float64 // length on the records' clock, ns
}

func (p *pooled) add(q pooled) {
	p.kib += q.kib
	p.cpu += q.cpu
	p.wall += q.wall
}

func (p pooled) cost() float64 { return ratio(p.cpu, p.kib) }
func (p pooled) rate() float64 { return ratio(p.kib*1024/1e6, p.wall/1e9) }

// slice is what one slice of a window measured.
type slice struct {
	pooled
	latMS float64 // median latency of what it delivered; 0 when nothing
	core  float64 // probe reading of the core it ran on, mean of its two ends, ns per iteration
}

// leg is one measured window reduced to what the metrics need, so that
// the readers' records (a million of them on msg_pingpong) can go.
// sim_lossy has one leg; a real-socket workload has several, each on a
// fresh pair of endpoints.
type leg struct {
	w      *window
	total  pooled
	slices []slice
	latMS  []float32 // latency of every operation delivered intact inside the window
}

// newLeg cuts the records at the window's marks. Every stream's records
// are in the order of their completion.
func newLeg(w *window, streams [][]opRecord, opSize int) leg {
	l := leg{w: w, slices: make([]slice, len(w.marks)-1)}
	perOp := float64(opSize) / 1024
	next := make([]int, len(streams)) // first record of each stream not yet placed
	for i, recs := range streams {
		next[i] = sort.Search(len(recs), func(k int) bool { return recs[k].done >= w.t0() })
	}
	var lat []float64
	for i := range l.slices {
		a, b := w.marks[i], w.marks[i+1]
		c := &l.slices[i]
		c.cpu, c.wall = float64(b.cpu-a.cpu), float64(b.t-a.t)
		c.core = (w.core[i] + w.core[i+1]) / 2
		lat = lat[:0]
		for k, recs := range streams {
			for ; next[k] < len(recs) && recs[next[k]].done < b.t; next[k]++ {
				if r := recs[next[k]]; r.ok {
					c.kib += perOp
					lat = append(lat, float64(r.latency)/1e6)
					l.latMS = append(l.latMS, float32(float64(r.latency)/1e6))
				}
			}
		}
		c.latMS = median(lat)
		l.total.add(c.pooled)
	}
	return l
}

// dump prints the leg's slices as the clocks read them, if asked to.
func (l leg) dump() {
	if !dumpSlices {
		return
	}
	var cost, rate, lat, x []float64
	for _, c := range l.slices {
		cost, rate, lat, x = append(cost, c.cost()), append(rate, c.rate()), append(lat, c.latMS), append(x, ratio(c.core, steer.best))
	}
	fmt.Printf("# slices cpu_ns_per_KiB %.0f\n# slices goodput_MBps %.4g\n# slices latency_p50_ms %.4g\n# slices contention %.3g\n", cost, rate, lat, x)
}

func pool(legs []leg) pooled {
	var p pooled
	for _, l := range legs {
		p.add(l.total)
	}
	return p
}

// summary is everything the measured windows of one run yield.
type summary struct {
	pooled
	e2e   map[string]float64
	layer map[string]float64
	// whole is the time-based end-to-end metrics over the whole windows
	// as the clocks read them; contention is the slices' contention
	// index, sorted.
	whole      map[string]float64
	contention []float64
}

// summarise turns the legs into the end-to-end metrics (without
// setup_s) and the process and harness rows of the per-layer table.
// Payload, CPU, allocations and time are summed over the legs before a
// per-layer ratio is taken; resident-set samples are pooled before their
// median.
//
// busy says what the time-based end-to-end metrics are. Zero: totals
// and the median over the whole windows (sim_lossy, whose window is
// already made of scaled slices and whose goodput and latency are
// virtual; and the passes that are recorded, not gated). Otherwise it is
// the workload's slowdown on a fully shared core, and each metric is the
// median over the slices of the slice's value scaled back by
// slowdown(its contention index, busy): CPU per KiB and latency divided
// by it, goodput multiplied, because all three follow the speed of the
// core in a closed loop that keeps one P busy.
func summarise(legs []leg, busy float64) summary {
	var s summary
	var lat, rss, cost, rate, sliceLat []float64
	var mallocs, allocBytes, sys, gcCPU float64
	var first, last pooled
	for _, l := range legs {
		w := l.w
		s.add(l.total)
		for _, v := range l.latMS {
			lat = append(lat, float64(v))
		}
		rss = append(rss, w.rss...)
		mallocs += float64(w.close.mallocs - w.open.mallocs)
		allocBytes += float64(w.close.allocBytes - w.open.allocBytes)
		sys += float64(w.close.sys - w.open.sys)
		gcCPU += (w.close.gcCPU - w.open.gcCPU) * 1e9
		for i, c := range l.slices {
			x := ratio(c.core, steer.best)
			s.contention = append(s.contention, x)
			if c.kib > 0 {
				g := slowdown(x, max(busy, 1))
				cost = append(cost, c.cost()/g)
				rate = append(rate, c.rate()*g)
				sliceLat = append(sliceLat, c.latMS/g)
			}
			// The first and the last tenth of the window, for the growth row.
			if n := (len(l.slices) + 9) / 10; i < n {
				first.add(c.pooled)
			} else if i >= len(l.slices)-n {
				last.add(c.pooled)
			}
		}
	}
	sort.Float64s(lat)
	sort.Float64s(s.contention)
	s.whole = map[string]float64{
		"goodput_MBps":   s.rate(),
		"cpu_ns_per_KiB": s.cost(),
		"latency_p50_ms": percentile(lat, 0.50),
	}
	s.e2e = map[string]float64{"rss_mb": median(rss)}
	merge(s.e2e, s.whole)
	if busy > 0 {
		s.e2e["goodput_MBps"] = median(rate)
		s.e2e["cpu_ns_per_KiB"] = median(cost)
		s.e2e["latency_p50_ms"] = median(sliceLat)
	}
	s.layer = map[string]float64{
		"process.allocs_per_KiB":      ratio(mallocs, s.kib),
		"process.alloc_bytes_per_KiB": ratio(allocBytes, s.kib),
		"process.gc_cpu_share":        ratio(gcCPU, s.cpu),
		"process.sys_cpu_share":       ratio(sys, s.cpu),
		"process.peak_rss_mb":         peakRSSMB(),
		"harness.latency_p99_ms":      percentile(lat, 0.99),
		"harness.latency_samples":     float64(len(lat)),
		"harness.core_contention_p50": percentile(s.contention, 0.5),
		// CPU per KiB in the windows' last tenth over the same in their
		// first: above 1, the stack got more expensive as state
		// (scoreboards, loss history) accumulated.
		"qtp.cost_growth_ratio": ratio(last.cost(), first.cost()),
	}
	return s
}

// describe prints what the clocks read before any scaling, and how
// disturbed the core was.
func (s summary) describe() {
	fmt.Printf("# whole windows, as the clocks read them: goodput_MBps %.6g cpu_ns_per_KiB %.6g latency_p50_ms %.6g\n",
		s.whole["goodput_MBps"], s.whole["cpu_ns_per_KiB"], s.whole["latency_p50_ms"])
	steer.describe(s.contention)
}

// deciles returns the minimum, the nine deciles and the maximum of a
// sorted sample.
func deciles(sorted []float64) []float64 {
	out := make([]float64, 11)
	for i := range out {
		out[i] = percentile(sorted, float64(i)/10)
	}
	return out
}

// connCounters are the qtp.Conn counters the per-layer table uses.
type connCounters struct {
	dataFrames, retransFrames, ackFrames, framesIn, decodeErrors float64
}

func (c *connCounters) add(snd0, rcv0, snd1, rcv1 qtp.Stats) {
	c.dataFrames += float64(snd1.DataFramesSent - snd0.DataFramesSent)
	c.retransFrames += float64(snd1.RetransFrames - snd0.RetransFrames)
	c.ackFrames += float64(rcv1.FeedbackFrames + rcv1.SACKFrames - rcv0.FeedbackFrames - rcv0.SACKFrames)
	c.framesIn += float64(rcv1.FramesReceived - rcv0.FramesReceived)
	c.decodeErrors += float64(snd1.DecodeErrors + rcv1.DecodeErrors - snd0.DecodeErrors - rcv0.DecodeErrors)
}

func (c connCounters) rows() map[string]float64 {
	return map[string]float64{
		"qtp.retrans_share":       ratio(c.retransFrames, c.dataFrames+c.retransFrames),
		"qtp.acks_per_data_frame": ratio(c.ackFrames, c.dataFrames+c.retransFrames),
		"qtp.decode_errors":       c.decodeErrors,
	}
}

// endpointCounters are the qtpnet.EndpointStats deltas the per-layer
// table uses, summed over the legs. The server receives the data, the
// client sends it; failures are summed over both.
type endpointCounters struct {
	dgramsIn, rxSyscalls, dgramsOut, txSyscalls, wakeups float64
	gsoSegs, gsoTrains, groMerged                        float64
	rxDrops, noroute, sendErrs, openFailures             float64
}

func (c *endpointCounters) add(srv0, cli0, srv1, cli1 qtpnet.EndpointStats) {
	du := func(a, b uint64) float64 { return float64(b - a) }
	c.dgramsIn += du(srv0.DatagramsIn, srv1.DatagramsIn)
	c.rxSyscalls += du(srv0.RecvBatches, srv1.RecvBatches)
	c.dgramsOut += du(cli0.DatagramsOut, cli1.DatagramsOut)
	c.txSyscalls += du(cli0.SendBatches, cli1.SendBatches)
	c.wakeups += du(srv0.Wakeups, srv1.Wakeups) + du(cli0.Wakeups, cli1.Wakeups)
	c.gsoSegs += du(cli0.GsoSegs, cli1.GsoSegs)
	c.gsoTrains += du(cli0.GsoTrains, cli1.GsoTrains)
	c.groMerged += du(srv0.GroMerged, srv1.GroMerged)
	c.rxDrops += du(srv0.RecvDrops, srv1.RecvDrops) + du(cli0.RecvDrops, cli1.RecvDrops)
	c.noroute += du(srv0.NoRoute, srv1.NoRoute) + du(cli0.NoRoute, cli1.NoRoute)
	c.sendErrs += du(srv0.SendErrs+srv0.SendDrops, srv1.SendErrs+srv1.SendDrops) +
		du(cli0.SendErrs+cli0.SendDrops, cli1.SendErrs+cli1.SendDrops)
	c.openFailures += du(srv0.OpenFailures, srv1.OpenFailures) + du(cli0.OpenFailures, cli1.OpenFailures)
}

func (c endpointCounters) rows(s summary) map[string]float64 {
	return map[string]float64{
		"qtpnet.cpu_ns_per_dgram":      ratio(s.cpu, c.dgramsIn),
		"qtpnet.dgrams_per_rx_syscall": ratio(c.dgramsIn, c.rxSyscalls),
		"qtpnet.dgrams_per_tx_syscall": ratio(c.dgramsOut, c.txSyscalls),
		"qtpnet.wakeups_per_MiB":       ratio(c.wakeups, s.kib/1024),
		"qtpnet.gso_segs_per_train":    ratio(c.gsoSegs, c.gsoTrains),
		"qtpnet.gro_merged_share":      ratio(c.groMerged, c.dgramsIn),
		"qtpnet.rx_drops":              c.rxDrops,
		"qtpnet.noroute":               c.noroute,
		"qtpnet.send_errs":             c.sendErrs,
		"qtpnet.open_failures":         c.openFailures,
	}
}
