package sack

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/seqspace"
)

// TestSendBufferPagesAcrossGoroutines runs a scoreboard on each of four
// goroutines at once over the one page pool, as an endpoint's shards do.
// Each acknowledges all but its newest 32 segments every 64 and then
// retransmits its oldest, which must carry the bytes first sent; under
// -race a page read after it went back to the pool and was refilled on
// another goroutine is reported as well.
func TestSendBufferPagesAcrossGoroutines(t *testing.T) {
	const workers, segs = 4, 20_000
	content := func(w int, q seqspace.Seq, p []byte) []byte {
		for i := range p {
			p[i] = byte(w + 7*int(q) + i)
		}
		return p
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewSendBuffer(0)
			buf, want := make([]byte, 1400), make([]byte, 1400)
			for q := seqspace.Seq(0); q < segs; q++ {
				now := time.Duration(q)
				b.Add(now, q, content(w, q, buf[:1+int(q)%len(buf)]))
				if q%64 != 63 {
					continue
				}
				b.OnSACK(now, q.Add(-31), nil)
				seq, _, p, ok := b.NextRetransmitSeg(now+1, 1)
				if !ok || !bytes.Equal(p, content(w, seq, want[:1+int(seq)%len(want)])) {
					errs <- fmt.Errorf("worker %d: retransmission of %d (ok %v) carries other bytes", w, seq, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
