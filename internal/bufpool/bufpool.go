// Package bufpool provides process-wide pools of byte buffers for the
// frame-handling hot paths. Receive paths that previously allocated
// (and often copied into) a fresh slice per frame — the UDP endpoint's
// batched read ring, the simulator drivers' workload writes — draw from
// these pools instead, so steady-state frame handling stays off the
// garbage collector entirely.
//
// Two size classes are pooled. Size (64 KiB) buffers back datagram I/O:
// the endpoint's receive ring, and the segment trains the endpoint
// builds each connection's burst in, frame after frame. ChunkSize
// (2 KiB) chunks carry the lone small frames (acks, control) a burst of
// one sends.
//
// Delivery uses both classes. A segment that arrives while its stream
// has nothing unread is copied into a chunk of its own; in-order
// segments that arrive behind unread data are appended to a run buffer
// of Size, so a reader that falls behind takes up to 64 KiB per read.
// The application releases whatever it read with PutChunk, which takes
// either class back.
//
// Ownership is strict: a buffer obtained from Get/GetChunk belongs to
// the caller until it is handed back with Put/PutChunk, and must not be
// referenced after. The protocol core cooperates by never retaining
// inbound frame memory (reassembly copies what it buffers), so a driver
// can recycle a buffer as soon as HandleFrame returns.
//
// The pools store array pointers, not slice headers, so Get and Put
// perform no interface boxing allocation on either side.
package bufpool

import "sync"

// Size is the capacity of every pooled datagram buffer: the largest
// datagram a QTP driver will read in one call (64 KiB covers any UDP
// payload).
const Size = 65536

// ChunkSize is the capacity of every pooled delivery chunk, sized to
// hold one reassembled segment (default MSS is 1400; anything larger
// falls back to a plain allocation).
const ChunkSize = 2048

var pool = sync.Pool{
	New: func() any { return new([Size]byte) },
}

var chunkPool = sync.Pool{
	New: func() any { return new([ChunkSize]byte) },
}

// Get returns a buffer of length Size. Contents are arbitrary.
func Get() []byte {
	return pool.Get().(*[Size]byte)[:]
}

// Put returns a buffer to the pool. Buffers that did not come from Get
// (wrong capacity) are dropped rather than pooled, so accidental reuse
// of a short slice can never poison later reads.
func Put(b []byte) {
	if cap(b) != Size {
		return
	}
	pool.Put((*[Size]byte)(b[:Size]))
}

// GetChunk returns a delivery chunk of length ChunkSize.
func GetChunk() []byte {
	return chunkPool.Get().(*[ChunkSize]byte)[:]
}

// PutChunk releases a delivered buffer to the pool of its size class: a
// chunk from GetChunk or a run buffer from Get. Slices of any other
// capacity — including the plain allocations the reassembler falls back
// to for oversized segments — are dropped, so callers may release every
// delivered buffer without tracking its origin.
func PutChunk(b []byte) {
	switch cap(b) {
	case ChunkSize:
		chunkPool.Put((*[ChunkSize]byte)(b[:ChunkSize]))
	case Size:
		pool.Put((*[Size]byte)(b[:Size]))
	}
}

// GetBatch returns n pooled buffers, each of length Size: the backing
// store for a batched-receive ring.
func GetBatch(n int) [][]byte {
	bs := make([][]byte, n)
	for i := range bs {
		bs[i] = Get()
	}
	return bs
}

// PutBatch releases every buffer in bs back to the pool.
func PutBatch(bs [][]byte) {
	for i, b := range bs {
		Put(b)
		bs[i] = nil
	}
}
