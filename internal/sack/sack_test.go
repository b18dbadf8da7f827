package sack

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/seqspace"
)

func pay(i int) []byte { return []byte(fmt.Sprintf("seg-%04d", i)) }

func TestSendBufferCumAck(t *testing.T) {
	b := NewSendBuffer(0)
	for i := 0; i < 5; i++ {
		b.Add(time.Duration(i), seqspace.Seq(i), pay(i))
	}
	n := b.OnSACK(10, 3, nil)
	if n != len(pay(0))*3 {
		t.Fatalf("newly acked = %d", n)
	}
	if b.Len() != 2 || b.cumAck != 3 {
		t.Fatalf("Len=%d cumAck=%d", b.Len(), b.cumAck)
	}
	// Regression: an old cumack must not rewind.
	b.OnSACK(11, 1, nil)
	if b.cumAck != 3 {
		t.Fatal("cumack went backwards")
	}
}

func TestSendBufferSACKMarksAndLossDetection(t *testing.T) {
	b := NewSendBuffer(0)
	for i := 0; i < 6; i++ {
		b.Add(time.Duration(i), seqspace.Seq(i), pay(i))
	}
	// SACK 2,3 — only 2 above seg 0/1: no loss declared yet.
	b.OnSACK(10, 0, []seqspace.Range{{Lo: 2, Hi: 4}})
	if _, _, _, ok := b.NextRetransmitSeg(11, 0); ok {
		t.Fatal("loss declared below dupthresh")
	}
	// SACK 4 as well: 3 above -> segments 0 and 1 lost.
	b.OnSACK(12, 0, []seqspace.Range{{Lo: 2, Hi: 5}})
	seq, _, _, ok := b.NextRetransmitSeg(13, 0)
	if p := payloadOf(b, seq); !ok || seq != 0 || !bytes.Equal(p, pay(0)) {
		t.Fatalf("retransmit = %v %q %v", seq, p, ok)
	}
	seq, _, _, ok = b.NextRetransmitSeg(13, 0)
	if !ok || seq != 1 {
		t.Fatalf("second retransmit = %v %v", seq, ok)
	}
	// Both retransmitted; nothing more due without further signals.
	if _, _, _, ok := b.NextRetransmitSeg(13, 0); ok {
		t.Fatal("spurious retransmission")
	}
	if b.Retransmits != 2 {
		t.Fatalf("Retransmits = %d", b.Retransmits)
	}
}

// TestSendBufferRetransmissionLostAgainInOrder: a retransmitted segment
// is declared lost again only once a segment first sent after the
// retransmission is delivered; acks that may predate the retransmission,
// and the ack of a segment that was itself retransmitted, are no proof.
func TestSendBufferRetransmissionLostAgainInOrder(t *testing.T) {
	b := NewSendBuffer(0)
	for i := 0; i < 6; i++ {
		b.Add(time.Duration(i), seqspace.Seq(i), pay(i))
	}
	b.OnSACK(10, 0, []seqspace.Range{{Lo: 2, Hi: 6}})
	for want := seqspace.Seq(0); want < 2; want++ {
		if seq, _, _, ok := b.NextRetransmitSeg(20+time.Duration(want), 0); !ok || seq != want {
			t.Fatalf("retransmit = %v %v, want %v", seq, ok, want)
		}
	}
	// The same vector again, sent before the retransmissions arrived.
	b.OnSACK(22, 0, []seqspace.Range{{Lo: 2, Hi: 6}})
	if seq, _, _, ok := b.NextRetransmitSeg(23, 0); ok {
		t.Fatalf("segment %d re-declared lost on a stale ack", seq)
	}
	// Segment 1 arrives. Whichever copy did was sent no earlier than its
	// original, and that went out before segment 0's retransmission.
	b.OnSACK(24, 0, []seqspace.Range{{Lo: 1, Hi: 6}})
	if seq, _, _, ok := b.NextRetransmitSeg(25, 0); ok {
		t.Fatalf("segment %d re-declared lost on a retransmitted segment's ack", seq)
	}
	// Segment 6, first sent after the retransmission, arrives: 0 is lost.
	b.Add(26, 6, pay(6))
	b.OnSACK(30, 0, []seqspace.Range{{Lo: 1, Hi: 7}})
	if seq, _, _, ok := b.NextRetransmitSeg(31, 0); !ok || seq != 0 {
		t.Fatalf("retransmit = %v %v, want segment 0 lost again", seq, ok)
	}
}

// TestSendBufferRetransmittedDeliveryCounts reads the loss rule's
// evidence directly: a retransmitted segment's delivery counts at its
// first transmission. No schedule shows it in a loss decision. A segment
// first sent after segment B's last retransmission is retransmitted
// only after B is again, since retransmissions go lowest first (an RTO
// that finds it due finds B due too). And for it to be declared lost,
// the highest segment SACKed above it — never retransmitted, first sent
// after B's retransmission too — must have arrived, which is evidence
// for B as well.
func TestSendBufferRetransmittedDeliveryCounts(t *testing.T) {
	b := NewSendBuffer(0)
	b.Add(5, 0, pay(0))
	if seq, _, _, ok := b.NextRetransmitSeg(20, 10); !ok || seq != 0 {
		t.Fatalf("retransmit = %v %v, want segment 0 on its RTO", seq, ok)
	}
	b.OnSACK(30, 1, nil)
	if b.newest != 5 {
		t.Fatalf("evidence = %v after the retransmitted segment's ack, want its first transmission 5", b.newest)
	}
}

func TestSendBufferRTORetransmit(t *testing.T) {
	b := NewSendBuffer(0)
	b.Add(0, 0, pay(0))
	if _, _, _, ok := b.NextRetransmitSeg(50*time.Millisecond, 100*time.Millisecond); ok {
		t.Fatal("retransmitted before RTO")
	}
	seq, _, _, ok := b.NextRetransmitSeg(150*time.Millisecond, 100*time.Millisecond)
	if !ok || seq != 0 {
		t.Fatal("RTO retransmission missing")
	}
	// lastSent updated: not due again immediately.
	if _, _, _, ok := b.NextRetransmitSeg(200*time.Millisecond, 100*time.Millisecond); ok {
		t.Fatal("retransmitted again before second RTO")
	}
}

func TestSendBufferPartialDeadline(t *testing.T) {
	b := NewSendBuffer(100 * time.Millisecond)
	b.Add(0, 0, pay(0))
	b.Add(time.Millisecond, 1, pay(1))
	// Declare both lost via SACKs of later segments.
	for i := 2; i < 6; i++ {
		b.Add(time.Duration(i)*time.Millisecond, seqspace.Seq(i), pay(i))
	}
	b.OnSACK(10*time.Millisecond, 0, []seqspace.Range{{Lo: 2, Hi: 6}})
	// Before the deadline: retransmission happens.
	if _, _, _, ok := b.NextRetransmitSeg(20*time.Millisecond, 0); !ok {
		t.Fatal("expected retransmission before deadline")
	}
	// Past the deadline: the other segment is abandoned, not sent.
	if seq, _, _, ok := b.NextRetransmitSeg(200*time.Millisecond, 0); ok {
		t.Fatalf("abandoned segment %d retransmitted", seq)
	}
	if b.AbandonedSegs != 2 {
		t.Fatalf("AbandonedSegs = %d, want 2", b.AbandonedSegs)
	}
}

func TestSendBufferNextTimeout(t *testing.T) {
	b := NewSendBuffer(0)
	if _, ok := b.NextTimeout(time.Second); ok {
		t.Fatal("empty buffer has no timeout")
	}
	b.Add(100*time.Millisecond, 0, pay(0))
	at, ok := b.NextTimeout(time.Second)
	if !ok || at != 1100*time.Millisecond {
		t.Fatalf("timeout = %v %v", at, ok)
	}
	// Partial deadline earlier than RTO wins.
	b2 := NewSendBuffer(200 * time.Millisecond)
	b2.Add(100*time.Millisecond, 0, pay(0))
	at, ok = b2.NextTimeout(time.Second)
	if !ok || at != 300*time.Millisecond {
		t.Fatalf("deadline timeout = %v %v", at, ok)
	}
}

func TestSendBufferUnresolved(t *testing.T) {
	b := NewSendBuffer(0)
	if b.Unresolved() {
		t.Fatal("empty buffer unresolved")
	}
	b.Add(0, 0, pay(0))
	if !b.Unresolved() {
		t.Fatal("outstanding segment not unresolved")
	}
	b.OnSACK(1, 1, nil)
	if b.Unresolved() {
		t.Fatal("acked segment still unresolved")
	}
}

func TestSendBufferAddOutOfOrderPanics(t *testing.T) {
	b := NewSendBuffer(0)
	b.Add(0, 0, pay(0))
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	b.Add(1, 2, pay(2))
}

// TestReassemblerInOrder delivers three segments before the reader
// looks: the popped stream is the three payloads in order, each chunk a
// run of consecutive segments, the first in a chunk of its own (nothing
// was unread when it arrived).
func TestReassemblerInOrder(t *testing.T) {
	r := NewReassembler(0, 0)
	for i := 0; i < 3; i++ {
		if !r.OnData(0, seqspace.Seq(i), pay(i), false) {
			t.Fatalf("segment %d rejected", i)
		}
	}
	var stream []byte
	for pops := 0; ; pops++ {
		p, ok := r.Pop()
		if !ok {
			break
		}
		if idx := runIndices(t, p); pops == 0 && len(idx) != 1 {
			t.Fatalf("first chunk holds segments %v, want only 0", idx)
		}
		stream = append(stream, p...)
	}
	if want := bytes.Join([][]byte{pay(0), pay(1), pay(2)}, nil); !bytes.Equal(stream, want) {
		t.Fatalf("popped %q, want %q", stream, want)
	}
	if r.CumAck() != 3 {
		t.Fatalf("CumAck = %d", r.CumAck())
	}
}

func TestReassemblerOutOfOrder(t *testing.T) {
	r := NewReassembler(0, 0)
	r.OnData(0, 0, pay(0), false)
	r.OnData(1, 2, pay(2), false) // hole at 1
	if r.CumAck() != 1 {
		t.Fatalf("CumAck = %d, want 1", r.CumAck())
	}
	blocks := r.Blocks(nil, 4)
	if len(blocks) != 1 || blocks[0].Lo != 2 || blocks[0].Hi != 3 {
		t.Fatalf("blocks = %v", blocks)
	}
	r.OnData(2, 1, pay(1), false) // fill the hole
	if r.CumAck() != 3 {
		t.Fatalf("CumAck = %d, want 3", r.CumAck())
	}
	var got []string
	for {
		p, ok := r.Pop()
		if !ok {
			break
		}
		got = append(got, string(p))
	}
	want := []string{string(pay(0)), string(pay(1)), string(pay(2))}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v", got)
		}
	}
}

func TestReassemblerDuplicates(t *testing.T) {
	r := NewReassembler(0, 0)
	r.OnData(0, 0, pay(0), false)
	if r.OnData(1, 0, pay(0), false) {
		t.Fatal("duplicate accepted")
	}
	r.OnData(2, 2, pay(2), false)
	if r.OnData(3, 2, pay(2), false) {
		t.Fatal("buffered duplicate accepted")
	}
	if r.DuplicateSegs != 2 {
		t.Fatalf("DuplicateSegs = %d", r.DuplicateSegs)
	}
}

func TestReassemblerFullNeverSkips(t *testing.T) {
	r := NewReassembler(0, 0)
	r.OnData(0, 0, pay(0), false)
	r.OnData(1, 5, pay(5), false)
	if _, ok := r.NextDeadline(); ok {
		t.Fatal("full reliability must not schedule skips")
	}
	r.OnDeadline(time.Hour)
	if r.CumAck() != 1 {
		t.Fatal("full reliability skipped a hole")
	}
}

func TestReassemblerPartialSkips(t *testing.T) {
	r := NewReassembler(0, 100*time.Millisecond)
	r.OnData(0, 0, pay(0), false)
	r.OnData(10*time.Millisecond, 3, pay(3), false) // holes 1,2
	at, ok := r.NextDeadline()
	if !ok || at != 110*time.Millisecond {
		t.Fatalf("deadline = %v %v", at, ok)
	}
	r.OnDeadline(50 * time.Millisecond) // too early
	if r.CumAck() != 1 {
		t.Fatal("skipped before deadline")
	}
	r.OnDeadline(110 * time.Millisecond)
	if r.CumAck() != 4 {
		t.Fatalf("CumAck = %d after skip, want 4", r.CumAck())
	}
	if r.SkippedSegs != 2 {
		t.Fatalf("SkippedSegs = %d, want 2", r.SkippedSegs)
	}
	// Data behind the skipped hole was delivered.
	r.Pop() // seg 0
	p, ok := r.Pop()
	if !ok || !bytes.Equal(p, pay(3)) {
		t.Fatalf("post-skip delivery = %q %v", p, ok)
	}
	// A late arrival for the skipped hole is stale.
	if r.OnData(200*time.Millisecond, 1, pay(1), false) {
		t.Fatal("stale segment accepted after skip")
	}
}

func TestReassemblerChainedSkips(t *testing.T) {
	r := NewReassembler(0, 50*time.Millisecond)
	r.OnData(0, 0, pay(0), false)
	r.OnData(0, 2, pay(2), false)                   // hole at 1
	r.OnData(10*time.Millisecond, 5, pay(5), false) // holes 3,4
	r.OnDeadline(60 * time.Millisecond)
	// First skip resolves hole 1; the next hole's timer starts at the
	// skip, so holes 3-4 are not yet due.
	if r.CumAck() != 3 {
		t.Fatalf("CumAck = %d, want 3", r.CumAck())
	}
	r.OnDeadline(120 * time.Millisecond)
	if r.CumAck() != 6 {
		t.Fatalf("CumAck = %d, want 6", r.CumAck())
	}
}

func TestReassemblerFin(t *testing.T) {
	r := NewReassembler(0, 0)
	r.OnData(0, 0, pay(0), false)
	r.OnData(0, 1, pay(1), true)
	if !r.Finished() {
		t.Fatal("Finished should be true after FIN delivery")
	}
	r2 := NewReassembler(0, 0)
	r2.OnData(0, 1, pay(1), true) // FIN buffered, hole at 0
	if r2.Finished() {
		t.Fatal("Finished before FIN deliverable")
	}
}

func TestReassemblerBlocksLimit(t *testing.T) {
	r := NewReassembler(0, 0)
	r.OnData(0, 0, pay(0), false)
	// Create many separate holes.
	for i := 2; i < 40; i += 2 {
		r.OnData(0, seqspace.Seq(i), pay(i), false)
	}
	blocks := r.Blocks(nil, 4)
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d, want capped at 4", len(blocks))
	}
}

// End-to-end property: any mix of loss, reordering and duplication is
// eventually recovered under full reliability via scoreboard-driven
// retransmission.
func TestLossRecoveryLoop(t *testing.T) {
	sb := NewSendBuffer(0)
	ra := NewReassembler(0, 0)
	const n = 200
	now := time.Duration(0)
	// First pass: send all, dropping every 7th.
	for i := 0; i < n; i++ {
		now += time.Millisecond
		sb.Add(now, seqspace.Seq(i), pay(i))
		if i%7 != 0 {
			ra.OnData(now, seqspace.Seq(i), pay(i), i == n-1)
		}
	}
	// Feedback/retransmission rounds.
	for round := 0; round < 50 && sb.Unresolved(); round++ {
		now += 10 * time.Millisecond
		blocks := ra.Blocks(nil, 16)
		sb.OnSACK(now, ra.CumAck(), blocks)
		for {
			seq, _, _, ok := sb.NextRetransmitSeg(now, 500*time.Millisecond)
			if !ok {
				break
			}
			ra.OnData(now, seq, payloadOf(sb, seq), int(seq) == n-1)
		}
	}
	if sb.Unresolved() {
		t.Fatal("reliability loop did not converge")
	}
	if !ra.Finished() {
		t.Fatal("receiver did not finish")
	}
	// Every segment, in order, each chunk a run of consecutive segments.
	next := 0
	for p, ok := ra.Pop(); ok; p, ok = ra.Pop() {
		for _, i := range runIndices(t, p) {
			if i != next {
				t.Fatalf("delivered segment %d, want %d", i, next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("delivered %d segments, want %d", next, n)
	}
}
