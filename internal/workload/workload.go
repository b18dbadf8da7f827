// Package workload generates application traffic demand for experiments:
// bulk transfers, constant-bit-rate streams, and GOP-structured
// variable-bit-rate video.
//
// A Source yields (time, size) pairs describing when application data
// becomes available to the transport. Sources are deterministic given
// their *rand.Rand, which experiments seed from the scenario spec.
package workload

import (
	"math/rand"
	"time"
)

// Source produces application data demands in non-decreasing time order.
type Source interface {
	// Next returns the time at which the next chunk of application data
	// is handed to the transport and its size in bytes. ok is false when
	// the source is exhausted.
	Next() (at time.Duration, size int, ok bool)
}

// Bulk models a file transfer: the entire payload is available at time
// zero, delivered to the transport in chunk-sized writes.
type Bulk struct {
	remaining int
	chunk     int
}

// NewBulk returns a bulk source of total bytes in chunk-sized writes.
func NewBulk(total, chunk int) *Bulk {
	if chunk <= 0 {
		panic("workload: non-positive chunk")
	}
	return &Bulk{remaining: total, chunk: chunk}
}

// Next implements Source.
func (b *Bulk) Next() (time.Duration, int, bool) {
	if b.remaining <= 0 {
		return 0, 0, false
	}
	n := b.chunk
	if n > b.remaining {
		n = b.remaining
	}
	b.remaining -= n
	return 0, n, true
}

// CBR emits fixed-size packets at a constant bit rate for a duration.
type CBR struct {
	interval time.Duration
	size     int
	until    time.Duration
	now      time.Duration
}

// NewCBR returns a constant-bit-rate source emitting size-byte packets at
// rate bytes/second until the given duration.
func NewCBR(rate float64, size int, duration time.Duration) *CBR {
	if rate <= 0 || size <= 0 {
		panic("workload: CBR needs positive rate and size")
	}
	return &CBR{
		interval: time.Duration(float64(size) / rate * float64(time.Second)),
		size:     size,
		until:    duration,
	}
}

// Next implements Source.
func (c *CBR) Next() (time.Duration, int, bool) {
	if c.now >= c.until {
		return 0, 0, false
	}
	at := c.now
	c.now += c.interval
	return at, c.size, true
}

// Video models an MPEG-style stream: frames at a fixed rate arranged in
// GOPs (groups of pictures) where the leading I-frame is larger than the
// following P-frames, with lognormal-ish size jitter. This is the
// multimedia workload the paper's introduction motivates (worldcup
// streaming to mobiles).
type Video struct {
	rng       *rand.Rand
	frameGap  time.Duration
	meanFrame int
	gopLen    int
	iScale    float64
	until     time.Duration

	frame int
	now   time.Duration
}

// NewVideo returns a video source at fps frames/second with the given
// mean P-frame size; every gopLen-th frame is an I-frame iScale times
// larger. Sizes jitter ±25% uniformly.
func NewVideo(fps float64, meanFrame, gopLen int, iScale float64, duration time.Duration, rng *rand.Rand) *Video {
	if fps <= 0 || meanFrame <= 0 || gopLen <= 0 {
		panic("workload: Video needs positive fps, frame size and GOP length")
	}
	return &Video{
		rng:       rng,
		frameGap:  time.Duration(float64(time.Second) / fps),
		meanFrame: meanFrame,
		gopLen:    gopLen,
		iScale:    iScale,
		until:     duration,
	}
}

// Next implements Source. Each call emits one frame.
func (v *Video) Next() (time.Duration, int, bool) {
	at, n, _, ok := v.NextFrame()
	return at, n, ok
}

// NextFrame is Next also reporting whether the emitted frame is the
// GOP's leading I-frame — applications that map frame classes onto
// transport streams (reliable key frames, expiring delta frames) route
// on it.
func (v *Video) NextFrame() (at time.Duration, size int, key bool, ok bool) {
	if v.now >= v.until {
		return 0, 0, false, false
	}
	key = v.frame%v.gopLen == 0
	fsize := float64(v.meanFrame)
	if key {
		fsize *= v.iScale
	}
	fsize *= 0.75 + 0.5*v.rng.Float64() // ±25% jitter
	at = v.now
	v.now += v.frameGap
	v.frame++
	size = int(fsize)
	if size < 1 {
		size = 1
	}
	return at, size, key, true
}

// Total drains src and returns the total bytes and event count it yields.
// Intended for tests and sanity checks, not hot paths.
func Total(src Source) (bytes, events int) {
	for {
		_, n, ok := src.Next()
		if !ok {
			return bytes, events
		}
		bytes += n
		events++
	}
}
