package sack

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/seqspace"
)

// addStream writes p and cuts it as segment seq, stamped conn.
func addStream(b *SendBuffer, now time.Duration, seq, conn seqspace.Seq, p []byte) {
	b.Write(p)
	b.Cut(now, seq, conn, len(p))
}

// payloadOf returns segment seq's bytes in one slice of its own.
func payloadOf(b *SendBuffer, seq seqspace.Seq) []byte {
	head, tail := b.Payload(seq)
	return append(append([]byte(nil), head...), tail...)
}

// spanned returns how many pages the bytes b must hold span: from the
// head segment's first byte (the first queued byte with nothing in
// flight) to the last byte written, none when that is empty.
func spanned(b *SendBuffer) int {
	lo := b.cut
	if b.n > 0 {
		lo = b.seg(b.head).off
	}
	if lo == b.end {
		return 0
	}
	return int((b.end-1-b.base)/pageSize-(lo-b.base)/pageSize) + 1
}

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
				seq, _, _, ok := b.NextRetransmitSeg(now+1, 1)
				if !ok || !bytes.Equal(payloadOf(b, seq), content(w, seq, want[:1+int(seq)%len(want)])) {
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
