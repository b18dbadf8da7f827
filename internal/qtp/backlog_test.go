package qtp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// pollWithBacklog emits frames data frames from a sender whose backlog
// is held at backlog bytes: each frame taken is replaced by a write of
// the same size, as a writer blocked on a full backlog does. No
// scoreboard, estimator or acknowledgment takes part (classic TFRC,
// unreliable), so what is timed is cutting a segment off the backlog
// and putting its bytes back. The clock starts once two backlogs' worth
// has gone out and the backlog's array has grown to its final size.
func pollWithBacklog(tb testing.TB, backlog, frames int) time.Duration {
	prof := core.ClassicTFRC().Normalize()
	c := NewConn(Config{Initiator: true, Profile: prof, ConnID: 1})
	c.StartDirect(0, prof, 10*time.Millisecond)
	if n := c.Write(make([]byte, backlog)); n != backlog {
		tb.Fatalf("backlog took %d of %d bytes", n, backlog)
	}
	refill, buf := make([]byte, prof.MSS), make([]byte, 0, 2048)
	var start time.Time
	for i := -2 * backlog / prof.MSS; i < frames; i++ {
		if i == 0 {
			start = time.Now()
		}
		frame, ok := c.PollFrameAppend(c.nextSendAt, buf)
		if !ok {
			tb.Fatalf("frame %d: nothing to send with %d bytes queued", i, c.BacklogLen())
		}
		c.Write(refill[:backlog-c.BacklogLen()])
		buf = frame[:0]
	}
	return time.Since(start)
}

// TestPollCostFlatInBacklog holds the per-frame cost of the send path to
// the same figure whether 64 KiB or 1 MiB is queued behind the frame.
// When buildData moved the rest of the backlog down after every segment
// the full backlog cost 16 times the bytes per frame and read 13 times
// dearer; the bound is 3x on the best of five trials — it reads 1.1x to
// 1.6x, the larger array's cache misses and its one move per MiB sent —
// with slack for a shared machine.
func TestPollCostFlatInBacklog(t *testing.T) {
	const frames = 4000
	best := func(backlog int) time.Duration {
		d := pollWithBacklog(t, backlog, frames)
		for i := 0; i < 4; i++ {
			d = min(d, pollWithBacklog(t, backlog, frames))
		}
		return d / frames
	}
	small, full := best(64<<10), best(1<<20)
	t.Logf("per frame: %v with 64 KiB queued, %v with 1 MiB queued", small, full)
	if full > 3*small {
		t.Errorf("a frame costs %v with 1 MiB queued against %v with 64 KiB: the send path walks the backlog", full, small)
	}
}

func BenchmarkPollFrameBacklog(b *testing.B) {
	for _, kib := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dKiB", kib), func(b *testing.B) {
			pollWithBacklog(b, kib<<10, b.N) // one op is one frame; the set-up is amortised over b.N
		})
	}
}
