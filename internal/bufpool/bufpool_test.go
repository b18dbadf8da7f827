package bufpool

import "testing"

func TestGetPut(t *testing.T) {
	b := Get()
	if len(b) != Size || cap(b) != Size {
		t.Fatalf("Get: len %d cap %d, want %d", len(b), cap(b), Size)
	}
	Put(b)
	// A short or foreign slice must be rejected, not pooled.
	Put(make([]byte, 10))
	if b2 := Get(); len(b2) != Size {
		t.Fatalf("pool handed back a short buffer: len %d", len(b2))
	}
}

func TestPutRestoresLength(t *testing.T) {
	b := Get()
	Put(b[:7]) // callers often hold buf[:n]
	if b2 := Get(); len(b2) != Size {
		t.Fatalf("recycled buffer has len %d, want %d", len(b2), Size)
	}
}

func TestChunkGetPut(t *testing.T) {
	c := GetChunk()
	if len(c) != ChunkSize || cap(c) != ChunkSize {
		t.Fatalf("GetChunk: len %d cap %d, want %d", len(c), cap(c), ChunkSize)
	}
	PutChunk(c[:13]) // applications release the sliced-down delivery view
	if c2 := GetChunk(); len(c2) != ChunkSize {
		t.Fatalf("recycled chunk has len %d, want %d", len(c2), ChunkSize)
	}
	// Foreign slices — including the reassembler's oversized-segment
	// fallback allocations — are dropped, never pooled.
	PutChunk(make([]byte, 10))
	PutChunk(nil)
}

// TestPutChunkTakesRuns pins the second delivery class: a run buffer
// the reassembler took with Get, released with PutChunk sliced to what
// the application read, comes back from Get, not from GetChunk. The
// race detector's sync.Pool drops a quarter of its Puts at random, so
// the round trip gets a few tries.
func TestPutChunkTakesRuns(t *testing.T) {
	for try := 0; try < 20; try++ {
		run := Get()
		PutChunk(run[:1400])
		if c := GetChunk(); cap(c) != ChunkSize {
			t.Fatalf("GetChunk handed out capacity %d, want %d", cap(c), ChunkSize)
		}
		b := Get()
		if len(b) != Size {
			t.Fatalf("Get after PutChunk of a run buffer: len %d, want %d", len(b), Size)
		}
		if &b[0] == &run[0] {
			return
		}
	}
	t.Fatal("a run buffer released with PutChunk never came back from Get")
}

func TestBatch(t *testing.T) {
	bs := GetBatch(5)
	if len(bs) != 5 {
		t.Fatalf("GetBatch returned %d buffers", len(bs))
	}
	for i, b := range bs {
		if len(b) != Size {
			t.Fatalf("batch buffer %d has len %d", i, len(b))
		}
	}
	PutBatch(bs)
	for i, b := range bs {
		if b != nil {
			t.Fatalf("PutBatch left buffer %d referenced", i)
		}
	}
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Put(Get())
	}
}

// BenchmarkChunkGetPut guards the delivery path's pool round trip:
// array-pointer boxing keeps both directions allocation-free.
func BenchmarkChunkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PutChunk(GetChunk())
	}
}
