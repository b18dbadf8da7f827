package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestBulk(t *testing.T) {
	b := NewBulk(2500, 1000)
	var sizes []int
	for {
		at, n, ok := b.Next()
		if !ok {
			break
		}
		if at != 0 {
			t.Fatalf("bulk data at %v, want 0", at)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) != 3 || sizes[0] != 1000 || sizes[1] != 1000 || sizes[2] != 500 {
		t.Fatalf("sizes = %v", sizes)
	}
	// Exhausted source stays exhausted.
	if _, _, ok := b.Next(); ok {
		t.Error("exhausted bulk yielded data")
	}
}

func TestBulkZeroTotal(t *testing.T) {
	b := NewBulk(0, 10)
	if _, _, ok := b.Next(); ok {
		t.Error("empty bulk yielded data")
	}
}

func TestCBRRate(t *testing.T) {
	// 100 kB/s in 1000-byte packets for 2 s -> 200 packets, 10 ms apart.
	c := NewCBR(100_000, 1000, 2*time.Second)
	bytes, events := Total(c)
	if events != 200 {
		t.Fatalf("events = %d, want 200", events)
	}
	if bytes != 200_000 {
		t.Fatalf("bytes = %d, want 200000", bytes)
	}
}

func TestCBRSpacing(t *testing.T) {
	c := NewCBR(100_000, 1000, time.Second)
	t0, _, _ := c.Next()
	t1, _, _ := c.Next()
	if t1-t0 != 10*time.Millisecond {
		t.Fatalf("spacing = %v, want 10ms", t1-t0)
	}
}

func TestVideoGOPStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := NewVideo(25, 4000, 12, 4.0, 2*time.Second, rng)
	var iSizes, pSizes []float64
	frame := 0
	for {
		_, n, ok := v.Next()
		if !ok {
			break
		}
		if frame%12 == 0 {
			iSizes = append(iSizes, float64(n))
		} else {
			pSizes = append(pSizes, float64(n))
		}
		frame++
	}
	if frame != 50 {
		t.Fatalf("frames = %d, want 50 (25 fps x 2 s)", frame)
	}
	meanI := mean(iSizes)
	meanP := mean(pSizes)
	if meanI < 2.5*meanP {
		t.Fatalf("I-frames (%v) not clearly larger than P-frames (%v)", meanI, meanP)
	}
}

func TestVideoFrameTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := NewVideo(25, 4000, 12, 4.0, time.Second, rng)
	t0, _, _ := v.Next()
	t1, _, _ := v.Next()
	if t1-t0 != 40*time.Millisecond {
		t.Fatalf("frame gap = %v, want 40ms", t1-t0)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewBulk(1, 0) },
		func() { NewCBR(0, 100, time.Second) },
		func() { NewCBR(100, 0, time.Second) },
		func() { NewVideo(0, 1, 1, 1, 1, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		rng := rand.New(rand.NewSource(99))
		v := NewVideo(30, 2000, 10, 5, time.Second, rng)
		var out []int
		for {
			_, n, ok := v.Next()
			if !ok {
				return out
			}
			out = append(out, n)
		}
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
