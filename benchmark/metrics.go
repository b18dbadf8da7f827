package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// base anchors the run's monotonic clock; payload stamps, records and
// spans on real sockets are nanoseconds since it.
var base = time.Now()

func nowNS() int64 { return int64(time.Since(base)) }

// cpuNS returns the process's user+system CPU time and its system part.
func cpuNS() (total, sys int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	sys = ru.Stime.Nano()
	return ru.Utime.Nano() + sys, sys
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // ru_maxrss is in KiB on linux
}

// rssMB reads the resident set from /proc/self/statm (0 if unreadable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return float64(pages) * float64(os.Getpagesize()) / 1e6
}

// rssSampler samples the resident set every 100 ms until stopped.
type rssSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.samples = append(s.samples, rssMB())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.samples = append(s.samples, rssMB())
			}
		}
	}()
	return s
}

// stopped stops the sampler and returns its samples.
func (s *rssSampler) stopped() []float64 {
	close(s.stop)
	s.wg.Wait()
	return s.samples
}

// snapshot is the process-wide state read at a window boundary.
type snapshot struct {
	wall       int64 // nowNS
	cpu, sys   int64
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := snapshot{wall: nowNS(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	s.cpu, s.sys = cpuNS()
	return s
}

// mark pairs a position on the records' clock (wall on real sockets,
// virtual in the simulator) with the CPU the process had used by then.
type mark struct{ t, cpu int64 }

// window is one measured interval: the process snapshots at both
// ends, the marks that bound it and cut it into slices, the probe
// reading of the core at every mark, and the resident-set samples (MB)
// taken inside it.
type window struct {
	open, close snapshot
	marks       []mark
	core        []float64
	rss         []float64
}

func (w *window) t0() int64 { return w.marks[0].t }
func (w *window) t1() int64 { return w.marks[len(w.marks)-1].t }

// percentile interpolates linearly between the closest ranks of a
// sorted sample; p is in [0, 1].
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
