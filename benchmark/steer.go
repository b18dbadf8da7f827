package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The machines this runs on give the process a few vCPUs of a shared
// host, each one hyperthread of a core whose other hyperthread belongs
// to somebody else. While that neighbour computes, the same
// instructions take up to half as long again, for seconds or for
// minutes, and no steal is reported: identical runs in a row then differ
// by 30 to 45%, which is what got the first version of this benchmark
// refused. The vCPUs are disturbed independently of one another.
//
// The harness does two things about it, both measured and described in
// the README. It reads the state of its core: between any two slices of
// a window it times a short loop of eight independent integer chains,
// whose speed halves when the core is shared and is otherwise constant.
// And it uses what it read: a workload that needs one vCPU is kept on
// the one whose core is the less disturbed (steering), and every slice's
// time-based values are scaled back, by a curve fixed here, to what the
// undisturbed core would have shown (slowdown).

// steering holds the vCPUs the process may use and the one in use.
type steering struct {
	cpus  []int   // allowed at start
	cur   int     // index of the one in use
	cand  int     // index of the next one to compare it with
	free  bool    // the workload needs two vCPUs: read both, move nothing
	moves int     // times the process changed vCPU
	steps int     // times step ran
	best  float64 // fastest probe reading on any vCPU so far, ns per iteration
}

var steer = newSteering()

func init() { runtime.LockOSThread() } // the main goroutine keeps the windows and steers

const maxCPUs = 1024

type cpuMask [maxCPUs / 64]uint64

func newSteering() *steering {
	s := &steering{}
	var mask cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return s // no steering: step only reads the core it is on
	}
	for cpu := 0; cpu < maxCPUs; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			s.cpus = append(s.cpus, cpu)
		}
	}
	if len(s.cpus) > 1 {
		s.cand = 1
	}
	return s
}

// setAffinity confines thread tid to the given vCPUs. It is best
// effort: a thread that has just exited, or a kernel that refuses,
// leaves the run as the scheduler placed it.
func setAffinity(tid int, cpus ...int) {
	var mask cpuMask
	for _, cpu := range cpus {
		mask[cpu/64] |= 1 << (cpu % 64)
	}
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
}

var probeSink uint64

// coreSpeed times the probe loop on the calling thread: nanoseconds per
// iteration, the best of three runs of some 70 us so that a preemption
// does not count. The eight chains keep an undisturbed core's ports
// busy, so a neighbour on the other hyperthread takes half of them; a
// single dependent chain (1.55 to 1.8 ns here) does not feel it.
func coreSpeed() float64 {
	const n = 40000
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
		t := time.Now()
		for i := 0; i < n; i++ {
			a = a*3 + 1
			b = b*5 + 2
			c = c*7 + 3
			d = d*9 + 4
			e = e ^ (e << 3) + 5
			f = f + (f >> 2) + 6
			g = g ^ (g >> 5) + 7
			h = h + (h << 1) + 8
		}
		dt := float64(time.Since(t)) / n
		probeSink += a + b + c + d + e + f + g + h
		if rep == 0 || dt < best {
			best = dt
		}
	}
	return best
}

// step reads the core in use and one other, moves the process if the
// other is clearly the faster, and returns the reading of the core the
// next slice runs on (the slower of the two for a workload on both). It
// is called on the main goroutine's locked thread, between slices.
func (s *steering) step() float64 {
	s.steps++
	if len(s.cpus) < 2 {
		here := coreSpeed()
		s.seen(here)
		return here
	}
	self := syscall.Gettid()
	setAffinity(self, s.cpus[s.cand])
	other := coreSpeed()
	setAffinity(self, s.cpus[s.cur])
	here := coreSpeed()
	s.seen(min(here, other))
	if s.free {
		setAffinity(self, s.cpus...)
		return max(here, other)
	}
	if here > 1.15*other {
		s.cur, s.cand = s.cand, s.cur
		s.moves++
		here = other
	} else if len(s.cpus) > 2 {
		if s.cand = (s.cand + 1) % len(s.cpus); s.cand == s.cur {
			s.cand = (s.cand + 1) % len(s.cpus)
		}
	}
	s.pin()
	return here
}

func (s *steering) seen(reading float64) {
	if s.best == 0 || reading < s.best {
		s.best = reading
	}
}

// pin puts every thread of the process on the vCPU in use. Threads the
// runtime starts later inherit it from the thread that starts them.
func (s *steering) pin() {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			setAffinity(tid, s.cpus[s.cur])
		}
	}
}

// release lets every thread run on any allowed vCPU again and stops
// moving them: for a pass that needs two.
func (s *steering) release() {
	s.free = true
	if ents, err := os.ReadDir("/proc/self/task"); err == nil && len(s.cpus) > 0 {
		for _, e := range ents {
			if tid, err := strconv.Atoi(e.Name()); err == nil {
				setAffinity(tid, s.cpus...)
			}
		}
	}
}

// contentionOnset and contentionFull bound the part of the probe's
// range over which the stack's slowdown grows, nearly in a straight
// line: up to 1.05 times the fastest reading nothing is felt, at twice
// (where the probe itself stops) the slowdown is whole. busySlowdown is
// that whole: how much slower the stack runs on a fully shared core.
// It is the value that makes ten runs of a workload, some on a quiet
// box and some on a busy one, agree best: 1.65 to 1.8 on bulk_* and
// sim_lossy, less sharply defined (1.35 to 1.8) on msg_pingpong. The
// README has the measurements and how to make them again.
const (
	contentionOnset = 1.05
	contentionFull  = 2.0
	busySlowdown    = 1.7
)

// slowdown is the factor by which code that runs full times slower on a
// fully shared core runs slower at contention index x (a slice's probe
// reading over the fastest of the run).
func slowdown(x, full float64) float64 {
	t := (x - contentionOnset) / (contentionFull - contentionOnset)
	return 1 + (full-1)*min(max(t, 0), 1)
}

func (s *steering) describe(contention []float64) {
	fmt.Printf("# steering: %d vCPUs, %d moves in %d steps, fastest core probe %.3g ns; contention index of the slices, min, deciles, max: %.3g\n",
		len(s.cpus), s.moves, s.steps, s.best, deciles(contention))
}
