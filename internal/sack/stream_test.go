package sack

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/seqspace"
)

// TestOnConnSACKResolvesByConnSeq drives a scoreboard whose stream and
// connection sequence spaces diverge (the multi-stream case: another
// stream consumed connection numbers in between) and resolves segments
// through connection-level SACK vectors.
func TestOnConnSACKResolvesByConnSeq(t *testing.T) {
	b := NewSendBuffer(0)
	// Stream seqs 1..4 mapped to sparse connection seqs.
	conns := []seqspace.Seq{10, 13, 17, 22}
	for i, c := range conns {
		addStream(b, 0, seqspace.Seq(i+1), c, []byte{byte(i)})
	}
	// Connection-level cum 14 releases conn 10 and 13.
	if got := b.OnConnSACK(0, 14, nil); got != 2 {
		t.Fatalf("released %d bytes, want 2", got)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.cumAck; got != 3 {
		t.Fatalf("stream cumAck = %d, want 3", got)
	}
	// A block covering conn 22 SACKs the last segment, leaving 17.
	b.OnConnSACK(0, 14, []seqspace.Range{{Lo: 22, Hi: 23}})
	conn, ok := b.MinUnresolvedConn()
	if !ok || conn != 17 {
		t.Fatalf("MinUnresolvedConn = %d/%v, want 17/true", conn, ok)
	}
	if !b.Unresolved() {
		t.Fatal("segment conn 17 should be unresolved")
	}
	// Cum past everything resolves the stream.
	b.OnConnSACK(0, 23, nil)
	if b.Unresolved() {
		t.Fatal("scoreboard should be empty")
	}
	if _, ok := b.MinUnresolvedConn(); ok {
		t.Fatal("MinUnresolvedConn on resolved scoreboard")
	}
}

// TestStreamSeqWraparound runs the scoreboard and both receivers across
// the 32-bit wrap of the per-stream sequence space, with connection
// numbers wrapping at a different point — the multi-stream layout makes
// the two spaces wrap independently.
func TestStreamSeqWraparound(t *testing.T) {
	const n = 8
	start := seqspace.Seq(0xfffffffc) // wraps after 4 segments
	connStart := seqspace.Seq(0xfffffffe)

	b := NewSendBuffer(0)
	for i := 0; i < n; i++ {
		addStream(b, 0, start.Add(i), connStart.Add(2*i), []byte{byte(i)})
	}
	// Connection cum past the first six (wrapped) segments.
	b.OnConnSACK(0, connStart.Add(11), nil)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.cumAck; got != start.Add(6) {
		t.Fatalf("cumAck = %d, want %d", got, start.Add(6))
	}
	conn, ok := b.MinUnresolvedConn()
	if !ok || conn != connStart.Add(12) {
		t.Fatalf("MinUnresolvedConn = %d/%v, want %d", conn, ok, connStart.Add(12))
	}

	// Reassembler across the wrap: deliver 0..n with a gap at start+2,
	// filled last.
	r := NewReassembler(start, 0)
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		r.OnData(0, start.Add(i), []byte{byte(i)}, i == n-1)
	}
	if got := r.CumAck(); got != start.Add(2) {
		t.Fatalf("reassembler CumAck = %d, want %d", got, start.Add(2))
	}
	r.OnData(0, start.Add(2), []byte{2}, false)
	if got := r.CumAck(); got != start.Add(n) {
		t.Fatalf("reassembler CumAck = %d, want %d after fill", got, start.Add(n))
	}
	if !r.Finished() {
		t.Fatal("reassembler should be finished across the wrap")
	}
	// Each segment is its own index, so the popped stream in order is
	// 0..n-1 whatever the chunks.
	var stream, want []byte
	for p, ok := r.Pop(); ok; p, ok = r.Pop() {
		stream = append(stream, p...)
	}
	for i := 0; i < n; i++ {
		want = append(want, byte(i))
	}
	if !bytes.Equal(stream, want) {
		t.Fatalf("popped %v, want %v", stream, want)
	}

	// Unordered reassembler across the wrap.
	u := NewUnordered(start)
	order := []int{3, 0, 5, 1, 2, 4, 7, 6}
	for _, i := range order {
		if !u.OnData(0, start.Add(i), []byte{byte(i)}, i == n-1) {
			t.Fatalf("segment %d treated as duplicate", i)
		}
	}
	if !u.Finished() {
		t.Fatal("unordered receiver should be finished")
	}
	if got := u.CumAck(); got != start.Add(n) {
		t.Fatalf("unordered CumAck = %d, want %d", got, start.Add(n))
	}
	for k, i := range order {
		p, ok := u.Pop()
		if !ok || p[0] != byte(i) {
			t.Fatalf("pop %d: got %v/%v, want arrival-order %d", k, p, ok, i)
		}
	}
}

// TestUnorderedDeliversAroundHoles pins the no-HoL property: segments
// behind a hole are delivered immediately, the hole's SACK state stays
// accurate, and a late retransmission is still delivered (not skipped).
func TestUnorderedDeliversAroundHoles(t *testing.T) {
	u := NewUnordered(1)
	u.OnData(0, 1, []byte("a"), false)
	u.OnData(0, 3, []byte("c"), false) // 2 missing
	u.OnData(0, 4, []byte("d"), true)

	got := ""
	for {
		p, ok := u.Pop()
		if !ok {
			break
		}
		got += string(p)
	}
	if got != "acd" {
		t.Fatalf("delivered %q before the hole filled, want \"acd\"", got)
	}
	if u.Finished() {
		t.Fatal("finished with segment 2 missing")
	}
	if u.CumAck() != 2 {
		t.Fatalf("CumAck = %d, want 2", u.CumAck())
	}
	blocks := u.arrived.Above()
	if len(blocks) != 1 || blocks[0] != (seqspace.Range{Lo: 3, Hi: 5}) {
		t.Fatalf("blocks = %v, want [3,5)", blocks)
	}
	// The late retransmission of 2 is delivered, never skipped.
	if !u.OnData(0, 2, []byte("b"), false) {
		t.Fatal("retransmission of 2 rejected")
	}
	p, ok := u.Pop()
	if !ok || string(p) != "b" {
		t.Fatalf("pop = %q/%v, want \"b\"", p, ok)
	}
	if !u.Finished() || u.CumAck() != 5 {
		t.Fatalf("Finished=%v CumAck=%d, want true/5", u.Finished(), u.CumAck())
	}
	// True duplicates are counted, not re-delivered.
	if u.OnData(0, 3, []byte("c"), false) {
		t.Fatal("duplicate accepted")
	}
	if u.DuplicateSegs != 1 {
		t.Fatalf("DuplicateSegs = %d, want 1", u.DuplicateSegs)
	}
}

// TestOnConnSACKKeepsDeadlineAbandonment checks that expiring-stream
// scoreboards still abandon by deadline when acks arrive at the
// connection level only.
func TestOnConnSACKKeepsDeadlineAbandonment(t *testing.T) {
	b := NewSendBuffer(100 * time.Millisecond)
	addStream(b, 0, 1, 50, []byte("x"))
	addStream(b, 0, 2, 51, []byte("y"))
	// Segment 1 lost; at t=150ms it is past the deadline.
	if _, _, _, ok := b.NextRetransmitSeg(150*time.Millisecond, time.Second); ok {
		t.Fatal("expired segment retransmitted")
	}
	if b.AbandonedSegs != 2 {
		t.Fatalf("AbandonedSegs = %d, want 2", b.AbandonedSegs)
	}
	if b.Unresolved() {
		t.Fatal("abandoned segments should not count as unresolved")
	}
	if _, ok := b.MinUnresolvedConn(); ok {
		t.Fatal("abandoned segments must not hold the ack floor")
	}
}
