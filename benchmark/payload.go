package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// Every operation (a 64 KiB block or a 256 B message) is laid out as
//
//	[8 B index][8 B stamp, ns on the run's clock][body cut from the pattern]
//
// so the reader can check order, measure latency and compare every byte
// without sharing state with the writer.
const (
	opHeader  = 16
	blockSize = 64 << 10
	msgSize   = 256
	patLen    = 64 << 10
	// patStride is coprime with patLen, so consecutive operations cut
	// their bodies at different offsets: a block delivered in another
	// block's place never compares equal.
	patStride = 8191
)

// pattern is the seeded byte table all payload bodies are cut from.
// Filling and checking are a copy and a compare, so the harness adds
// almost nothing to the CPU the end-to-end metrics charge per KiB.
type pattern []byte

func newPattern(seed int64) pattern {
	p := make(pattern, patLen+blockSize)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func (p pattern) body(idx uint64, n int) []byte {
	off := int(idx * patStride % patLen)
	return p[off : off+n]
}

// fill writes operation idx, stamped at stamp, over the whole of dst.
func (p pattern) fill(dst []byte, idx uint64, stamp int64) {
	binary.BigEndian.PutUint64(dst[0:8], idx)
	binary.BigEndian.PutUint64(dst[8:16], uint64(stamp))
	copy(dst[opHeader:], p.body(idx, len(dst)-opHeader))
}

// opRecord is one operation as the reader saw it complete.
type opRecord struct {
	done    int64 // when its last byte was verified
	latency int64 // done minus the stamp it carried
	ok      bool  // index and every byte as expected
}

// verifier checks one reliable ordered byte stream of fixed-size
// operations whose indices run first, first+step, ... It never fails
// hard: a wrong index or byte marks the operation it falls in, and a
// gap leaves every later operation misframed and therefore marked too.
type verifier struct {
	pat  pattern
	size int
	step uint64
	next uint64 // index the operation being read must carry
	pos  int    // bytes of it consumed so far
	hdr  [opHeader]byte
	bad  bool
	recs []opRecord
}

func newVerifier(pat pattern, size int, first, step uint64) *verifier {
	return &verifier{pat: pat, size: size, next: first, step: step}
}

// feed consumes the next bytes of the stream, delivered at time now.
func (v *verifier) feed(p []byte, now int64) {
	for len(p) > 0 {
		if v.pos < opHeader {
			n := copy(v.hdr[v.pos:], p)
			v.pos += n
			p = p[n:]
			if v.pos == opHeader && binary.BigEndian.Uint64(v.hdr[0:8]) != v.next {
				v.bad = true
			}
			continue
		}
		want := v.pat.body(v.next, v.size-opHeader)[v.pos-opHeader:]
		n := min(len(p), len(want))
		if !bytes.Equal(p[:n], want[:n]) {
			v.bad = true
		}
		v.pos += n
		p = p[n:]
		if v.pos == v.size {
			stamp := int64(binary.BigEndian.Uint64(v.hdr[8:16]))
			v.recs = append(v.recs, opRecord{done: now, latency: now - stamp, ok: !v.bad})
			v.next += v.step
			v.pos = 0
			v.bad = false
		}
	}
}

// failed counts operations that completed with a wrong index or byte.
func (v *verifier) failed() int64 {
	var n int64
	for _, r := range v.recs {
		if !r.ok {
			n++
		}
	}
	return n
}

// records returns every stream's operation records.
func records(vers []*verifier) [][]opRecord {
	out := make([][]opRecord, len(vers))
	for i, v := range vers {
		out[i] = v.recs
	}
	return out
}

// accounting returns the operations attempted (written are those handed
// to Write, whole or in part) and those that failed: delivered with a
// wrong index or byte (corrupt), or written and never delivered.
func accounting(written int64, vers []*verifier) (attempted, failed int64, corrupt bool) {
	var done int64
	for _, v := range vers {
		done += int64(len(v.recs))
		failed += v.failed()
	}
	return written, failed + written - done, failed > 0
}
