package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.99, 9.91}, {1, 10}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// stream builds n operations of the given size, stamped at 0, whose
// indices run first, first+step, ...
func stream(pat pattern, size, n int, first, step uint64) []byte {
	out := make([]byte, n*size)
	for i := 0; i < n; i++ {
		pat.fill(out[i*size:(i+1)*size], first+uint64(i)*step, 0)
	}
	return out
}

// feedChunks delivers b in chunks of uneven sizes, as a transport would.
func feedChunks(v *verifier, b []byte) {
	for n := 1; len(b) > 0; n = n*7%1400 + 1 {
		n = min(n, len(b))
		v.feed(b[:n], 5)
		b = b[n:]
	}
}

func TestVerifier(t *testing.T) {
	pat := newPattern(7)
	const n = 6
	clean := stream(pat, msgSize, n, 1, 2)

	v := newVerifier(pat, msgSize, 1, 2)
	feedChunks(v, clean)
	if len(v.recs) != n || v.failed() != 0 {
		t.Fatalf("clean stream: %d operations, %d failed; want %d, 0", len(v.recs), v.failed(), n)
	}
	if v.recs[0].latency != 5 || v.recs[0].done != 5 {
		t.Errorf("record = %+v, want done 5 and latency 5", v.recs[0])
	}

	flipped := append([]byte(nil), clean...)
	flipped[2*msgSize+100] ^= 1
	v = newVerifier(pat, msgSize, 1, 2)
	feedChunks(v, flipped)
	if len(v.recs) != n || v.failed() != 1 || v.recs[2].ok {
		t.Errorf("flipped byte: %d failed, third ok=%v; want 1 failed, the third", v.failed(), v.recs[2].ok)
	}

	swapped := append([]byte(nil), clean...)
	copy(swapped[1*msgSize:], clean[2*msgSize:3*msgSize])
	copy(swapped[2*msgSize:], clean[1*msgSize:2*msgSize])
	v = newVerifier(pat, msgSize, 1, 2)
	feedChunks(v, swapped)
	if v.failed() != 2 || v.recs[1].ok || v.recs[2].ok || !v.recs[3].ok {
		t.Errorf("reordered operations: %d failed, want exactly the two swapped", v.failed())
	}

	gap := append(append([]byte(nil), clean[:msgSize+40]...), clean[msgSize+90:]...)
	v = newVerifier(pat, msgSize, 1, 2)
	feedChunks(v, gap)
	if len(v.recs) != n-1 || v.failed() != n-2 {
		t.Errorf("gap: %d operations, %d failed; want %d, %d (everything after the gap)",
			len(v.recs), v.failed(), n-1, n-2)
	}

	wrongSeed := newVerifier(newPattern(8), msgSize, 1, 2)
	feedChunks(wrongSeed, clean)
	if wrongSeed.failed() != n {
		t.Errorf("another seed's pattern: %d failed, want %d", wrongSeed.failed(), n)
	}
}

// stallingStream is a byteStream whose third Write takes a while.
type stallingStream struct {
	writes [][]byte
	stall  time.Duration
	stopAt int
	stop   func()
}

func (s *stallingStream) Write(p []byte) (int, error) {
	s.writes = append(s.writes, append([]byte(nil), p...))
	if len(s.writes) == 3 {
		time.Sleep(s.stall)
	}
	if len(s.writes) == s.stopAt {
		s.stop()
	}
	return len(p), nil
}
func (s *stallingStream) Read(time.Duration) ([]byte, bool) { return nil, false }
func (s *stallingStream) Release([]byte)                    {}
func (s *stallingStream) CloseSend()                        {}

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	const interval = 2 * time.Millisecond
	const stall = 15 * time.Millisecond
	pat := newPattern(1)
	fake := &stallingStream{stall: stall, stopAt: 12}
	tr := &traffic{s: &udpSession{
		spec: udpSpec{opSize: msgSize, streams: 1, interval: interval},
		pat:  pat, tx: []byteStream{fake}, nextOp: 1,
	}}
	fake.stop = func() { tr.stop.Store(true) }
	tr.write()

	if tr.written != 13 || len(fake.writes) != 12 || len(tr.due) != 12 {
		t.Fatalf("written=%d writes=%d due=%d, want 13 (next index) 12 12", tr.written, len(fake.writes), len(tr.due))
	}
	v := newVerifier(pat, msgSize, 1, 1)
	for i, w := range fake.writes {
		v.feed(w, 0)
		if i > 0 && tr.due[i]-tr.due[i-1] != int64(interval) {
			t.Errorf("operation %d due %v after the one before, want %v: a stall must not shift the schedule",
				i, time.Duration(tr.due[i]-tr.due[i-1]), interval)
		}
		if stamp := -v.recs[i].latency; stamp != tr.due[i] {
			t.Errorf("operation %d stamped %d, want its due time %d", i, stamp, tr.due[i])
		}
	}
	if v.failed() != 0 {
		t.Errorf("%d generated operations do not verify", v.failed())
	}
	// The operation after the stalled Write was due while it blocked.
	if late := time.Duration(tr.late[3]); late < stall-2*interval {
		t.Errorf("lateness after a %v stall = %v, want about %v", stall, late, stall-interval)
	}
	worst := tr.maxLateMS(tr.due[0], tr.due[11]+1)
	if worst < float64(tr.late[3])/1e6 {
		t.Errorf("maxLateMS = %v, below operation 3's own %v", worst, float64(tr.late[3])/1e6)
	}
	if got := tr.maxLateMS(tr.due[11]+1, tr.due[11]+2); got != 0 {
		t.Errorf("maxLateMS of an empty interval = %v, want 0", got)
	}
}

// countingStream is a byteStream that counts its Writes.
type countingStream struct{ writes chan int }

func (s *countingStream) Write(p []byte) (int, error)       { s.writes <- len(p); return len(p), nil }
func (s *countingStream) Read(time.Duration) ([]byte, bool) { return nil, false }
func (s *countingStream) Release([]byte)                    {}
func (s *countingStream) CloseSend()                        {}

func TestInFlightLimit(t *testing.T) {
	fake := &countingStream{writes: make(chan int, 16)}
	tr := &traffic{
		s:       &udpSession{spec: udpSpec{opSize: msgSize, streams: 1, inFlight: 2}, pat: newPattern(1), tx: []byteStream{fake}},
		credits: make(chan struct{}, 2),
	}
	tr.credits <- struct{}{}
	tr.credits <- struct{}{}
	done := make(chan struct{})
	go func() { tr.write(); close(done) }()
	wrote := func(want int) {
		t.Helper()
		for i := 0; i < want; i++ {
			select {
			case <-fake.writes:
			case <-time.After(2 * time.Second):
				t.Fatalf("write %d of %d did not happen", i+1, want)
			}
		}
		select {
		case <-fake.writes:
			t.Fatal("the writer went past its credits")
		case <-time.After(30 * time.Millisecond):
		}
	}
	wrote(2)                 // both credits spent, the writer waits
	tr.credits <- struct{}{} // a reader verified one operation
	wrote(1)
	tr.stop.Store(true)
	tr.credits <- struct{}{} // finish's wake-up
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("the writer did not stop")
	}
	if tr.written != 3 {
		t.Errorf("written = %d, want 3", tr.written)
	}
}

// windowOf builds a window whose slices cost cpu[i] ns each, one
// operation of 1 KiB completing in each with latency lat[i] ns, on a
// core whose probe read core[i] before slice i (and core[len-1] after
// the last); slices are 100 units of the records' clock long.
func windowOf(cpu, lat []int64, core []float64) (*window, [][]opRecord) {
	w := &window{marks: []mark{{0, 0}}, core: core}
	var recs []opRecord
	for i := range cpu {
		prev := w.marks[i]
		w.marks = append(w.marks, mark{prev.t + 100, prev.cpu + cpu[i]})
		recs = append(recs, opRecord{done: prev.t + 50, latency: lat[i], ok: true})
	}
	return w, [][]opRecord{recs}
}

func TestSlowdown(t *testing.T) {
	for _, c := range []struct{ x, full, want float64 }{
		{1, 1.4, 1}, {1.05, 1.4, 1}, {1.525, 1.4, 1.2}, {2, 1.4, 1.4}, {2.3, 1.4, 1.4}, {0.9, 1.4, 1}, {2, 1, 1},
	} {
		if got := slowdown(c.x, c.full); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("slowdown(%v, %v) = %v, want %v", c.x, c.full, got, c.want)
		}
	}
}

func TestSummarise(t *testing.T) {
	defer func(best float64) { steer.best = best }(steer.best)
	steer.best = 1
	// Nine slices of 1 KiB each. The first six ran on an undisturbed
	// core at 100 ns and 2 ms; the last three on a fully shared one, where
	// a workload that slows down 1.5 times takes 150 ns and 3 ms.
	cpu := []int64{100, 100, 100, 100, 100, 100, 150, 150, 150}
	lat := []int64{2e6, 2e6, 2e6, 2e6, 2e6, 2e6, 3e6, 3e6, 3e6}
	core := []float64{1, 1, 1, 1, 1, 1, 2, 2, 2, 2}
	w, streams := windowOf(cpu, lat, core)
	l := newLeg(w, streams, 1024)
	if len(l.slices) != 9 || l.total.kib != 9 || l.total.cpu != 1050 || len(l.latMS) != 9 {
		t.Fatalf("leg: %d slices, %+v, %d latencies", len(l.slices), l.total, len(l.latMS))
	}
	if c := l.slices[6]; c.core != 2 || c.latMS != 3 || l.slices[5].core != 1.5 {
		t.Errorf("slice 6 = %+v, slice 5 core %v; want core 2, 3 ms, and 1.5 across the change", c, l.slices[5].core)
	}
	rate := 1024.0 / 1e6 / 100e-9 // every slice delivers 1 KiB in 100 ns of the records' clock

	whole := summarise([]leg{l}, 0)
	if got := whole.e2e["cpu_ns_per_KiB"]; math.Abs(got-1050.0/9) > 1e-9 {
		t.Errorf("whole-window cost = %v, want the total %v", got, 1050.0/9)
	}
	if got := whole.e2e["latency_p50_ms"]; got != 2 {
		t.Errorf("whole-window latency = %v, want the median 2", got)
	}
	if got := whole.e2e["goodput_MBps"]; math.Abs(got-rate) > 1e-6 {
		t.Errorf("whole-window goodput = %v, want %v", got, rate)
	}

	scaled := summarise([]leg{l}, 1.5)
	// Slices 6 to 8 scale back to 100 ns and 2 ms exactly; slice 5, half
	// on each core, is under-corrected; the median does not see it.
	if got := scaled.e2e["cpu_ns_per_KiB"]; math.Abs(got-100) > 1e-9 {
		t.Errorf("scaled cost = %v, want 100", got)
	}
	if got := scaled.e2e["latency_p50_ms"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("scaled latency = %v, want 2", got)
	}
	if got := scaled.e2e["goodput_MBps"]; math.Abs(got-rate) > 1e-6 {
		t.Errorf("scaled goodput = %v, want the undisturbed slices' %v", got, rate)
	}
	if got := scaled.whole["cpu_ns_per_KiB"]; math.Abs(got-1050.0/9) > 1e-9 {
		t.Errorf("what the clocks read = %v, want %v", got, 1050.0/9)
	}
	if got := scaled.layer["harness.core_contention_p50"]; got != 1 {
		t.Errorf("median contention = %v, want 1", got)
	}
	if got := scaled.layer["qtp.cost_growth_ratio"]; got != 1.5 {
		t.Errorf("cost growth = %v, want last slice over first, as measured", got)
	}

	// A slice that delivered nothing has no cost and no rate to count.
	streams[0] = streams[0][:8]
	if got := summarise([]leg{newLeg(w, streams, 1024)}, 1.5).e2e["goodput_MBps"]; math.Abs(got-rate) > 1e-6 {
		t.Errorf("goodput with an empty slice = %v, want %v", got, rate)
	}
}

func TestSteadyPass(t *testing.T) {
	defer func(best float64) { steer.best = best }(steer.best)
	steer.best = 1
	quiet := []float64{1, 1, 1, 1}
	a, _ := windowOf([]int64{10, 50, 30}, []int64{1, 1, 1}, quiet)
	b, _ := windowOf([]int64{20, 20, 20}, []int64{1, 1, 1}, quiet)
	c, _ := windowOf([]int64{30, 45, 45}, []int64{1, 1, 1}, []float64{1, 1, 2, 2})
	b.marks[0].cpu, b.marks[1].cpu, b.marks[2].cpu, b.marks[3].cpu = 1000, 1020, 1040, 1060
	none := func(pass, slice int) bool { return false }
	w := steadyPass([]*window{a, b, c}, 1.5, none)
	// Slice 3 of c ran on a shared core: 45 ns scale back to 30; slice 2
	// saw the core change: 45 ns scale back by 1+0.5*(1.5-1.05)/0.95 to 36.
	for i, want := range []int64{0, 20, 56, 86} {
		if w.marks[i].cpu != want {
			t.Errorf("mark %d at %d ns, want %d: each slice at the median of its passes", i, w.marks[i].cpu, want)
		}
	}
	if a.marks[2].cpu != 60 {
		t.Error("steadyPass changed a pass's own marks")
	}
	w = steadyPass([]*window{a, b, c}, 1.5, func(pass, slice int) bool { return pass == 2 && slice == 1 })
	if w.marks[1].cpu != 15 {
		t.Errorf("slice 1 of pass 2 skipped: mark at %d ns, want 15, between the other two", w.marks[1].cpu)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// window [0,100) > event [10,60) > poll [20,30), handle [30,50);
	// a second event [70,90) with nothing inside; one span before the
	// interval asked for and one never ended.
	tr := &tracer{spans: []span{
		{name: spWindow, parent: -1, start: 1000, end: 1100},
		{name: spSenderEvent, parent: 0, start: 1010, end: 1060},
		{name: spSenderPoll, parent: 1, start: 1020, end: 1030},
		{name: spSenderHandle, parent: 1, start: 1030, end: 1050},
		{name: spSenderEvent, parent: 0, start: 1070, end: 1090},
		{name: spSenderPoll, parent: -1, start: 900, end: 950},
		{name: spSenderPoll, parent: 0, start: 1095},
	}}
	tot := tr.totals(1000, 1100)
	want := map[spanName]spanTotal{
		spWindow:       {count: 1, total: 100, self: 30},
		spSenderEvent:  {count: 2, total: 70, self: 40},
		spSenderPoll:   {count: 1, total: 10, self: 10},
		spSenderHandle: {count: 1, total: 20, self: 20},
	}
	for name, w := range want {
		if tot[name] != w {
			t.Errorf("%s = %+v, want %+v", spanNames[name], tot[name], w)
		}
	}
	var off *tracer
	off.begin(spRead)
	off.end()
	if got := off.totals(0, 1<<62); got != [numSpanNames]spanTotal{} {
		t.Errorf("a nil tracer recorded %+v", got)
	}

	live := newTracer(4)
	live.begin(spWindow)
	live.begin(spRead)
	live.end()
	live.end()
	if len(live.open) != 0 || live.spans[1].parent != 0 || live.spans[0].parent != -1 {
		t.Errorf("nesting: open=%v spans=%+v", live.open, live.spans)
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestOutputSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the harness %d+%d",
			len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range file.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
	for i, m := range file.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}

	// What report prints must read back, through the compare parser,
	// as exactly the metrics of its kind.
	for _, traced := range []bool{false, true} {
		out := &outcome{attempted: 10, failed: 1, e2e: map[string]float64{}, layer: map[string]float64{}}
		for i, d := range endToEnd {
			out.e2e[d.name] = float64(i) + 0.125
		}
		for i, d := range perLayer {
			out.layer[d.name] = float64(i) + 0.25
		}
		var buf bytes.Buffer
		buf.WriteString("# workload=bulk_clear seed=1 seconds=20 trace=0\n")
		if !report(&buf, out, traced) {
			t.Fatal("report refused a complete outcome")
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if res.Correct || res.Attempted != 10 || res.Failed != 1 || len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: result %+v with %d metrics, want incorrect, 10, 1, %d",
				traced, res, len(res.Metrics), len(defs))
		}
		set, err := parseRuns(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range defs {
			if got := set["bulk_clear"][d.name]; len(got) != 1 || res.Metrics[d.name].Unit != d.unit {
				t.Errorf("traced=%v: %s read back as %v %q", traced, d.name, got, res.Metrics[d.name].Unit)
			}
		}
	}

	missing := &outcome{e2e: map[string]float64{"goodput_MBps": 1}}
	if report(&bytes.Buffer{}, missing, false) {
		t.Error("report accepted an outcome without every end-to-end metric")
	}
}

func TestCompareFlagsWhatIsOutsideTheBound(t *testing.T) {
	runs := func(goodput, cpu float64) string {
		var b strings.Builder
		for i := 0; i < 5; i++ {
			jitter := 1 + float64(i-2)/1000
			b.WriteString("# workload=bulk_sealed seed=1 seconds=20 trace=0\n")
			line, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"goodput_MBps":   {goodput * jitter, "MB/s"},
				"cpu_ns_per_KiB": {cpu * jitter, "ns"},
			}})
			b.Write(line)
			b.WriteString("\n")
		}
		return b.String()
	}
	dir := t.TempDir()
	a, b := dir+"/a.out", dir+"/b.out"
	if err := os.WriteFile(a, []byte(runs(30, 40000)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(runs(21, 41000)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "goodput_MBps"):
			if !strings.Contains(line, "WORSE") || !strings.Contains(line, "+30.0%") {
				t.Errorf("a 30%% goodput loss is not flagged: %q", line)
			}
		case strings.HasPrefix(line, "cpu_ns_per_KiB"):
			if strings.Contains(line, "WORSE") || !strings.Contains(line, "+2.5%") {
				t.Errorf("a 2.5%% CPU rise is inside the bound: %q", line)
			}
		}
	}
}

func TestSimLossyIsDeterministic(t *testing.T) {
	run := func(seed int64) (goodput, latency float64) {
		r, err := newSimRun(seed, lossyPath)
		if err != nil {
			t.Fatal(err)
		}
		r.sim.Run(time.Second)
		w, _, _ := simWindow(r, time.Second, time.Second, false)
		r.finish(waitLimit)
		if _, failed, _ := accounting(int64(r.nextOp), r.vers); failed != 0 {
			t.Errorf("seed %d: %d blocks failed", seed, failed)
		}
		s := summarise([]leg{newLeg(w, records(r.vers), blockSize)}, 0)
		return s.e2e["goodput_MBps"], s.e2e["latency_p50_ms"]
	}
	g1, l1 := run(1)
	g2, l2 := run(1)
	if g1 != g2 || l1 != l2 || g1 == 0 || l1 == 0 {
		t.Errorf("same seed: goodput %v vs %v, latency %v vs %v; want identical and non-zero", g1, g2, l1, l2)
	}
	if g3, l3 := run(2); g3 == g1 && l3 == l1 {
		t.Errorf("another seed gave the same goodput %v and latency %v", g3, l3)
	}
}
