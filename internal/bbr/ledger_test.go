package bbr

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seqspace"
)

// refTracker is the per-connection ledger QTP kept beside the controller
// before the controller's own send ring took its place: it records every
// first transmission and diffs each acknowledgment vector into OnAcked
// and OnLost calls, then hands the vector's RTT sample to OnFeedback, as
// QTP's SACK handler did. It is the reference OnAckVector must match.
type refTracker struct {
	c       *Controller
	base    seqspace.Seq
	recs    []refRec
	started bool
}

type refRec struct {
	size  int32
	acked bool
	lost  bool
}

func (t *refTracker) onSent(now time.Duration, seq seqspace.Seq, size int) {
	if !t.started || t.base.Distance(seq) != len(t.recs) {
		t.started = true
		t.base = seq
		t.recs = t.recs[:0]
	}
	t.recs = append(t.recs, refRec{size: int32(size)})
	t.c.OnSent(now, seq, size)
}

func (t *refTracker) onAckVector(now time.Duration, cum seqspace.Seq, ranges []seqspace.Range, rtt time.Duration) {
	if t.started {
		t.diff(now, cum, ranges, rtt)
	}
	t.c.OnFeedback(now, core.Feedback{RTTSample: rtt})
}

func (t *refTracker) diff(now time.Duration, cum seqspace.Seq, ranges []seqspace.Range, rtt time.Duration) {
	for i := range t.recs {
		if t.recs[i].acked {
			continue
		}
		seq := t.base.Add(i)
		hit := seq.Less(cum)
		for _, r := range ranges {
			hit = hit || r.Contains(seq)
		}
		if hit {
			t.recs[i].acked = true
			t.c.OnAcked(now, seq, int(t.recs[i].size), rtt)
		}
	}
	ackedAbove := 0
	for i := len(t.recs) - 1; i >= 0; i-- {
		if t.recs[i].acked {
			ackedAbove++
			continue
		}
		if !t.recs[i].lost && ackedAbove >= seqspace.DupThresh {
			t.recs[i].lost = true
			t.c.OnLost(now, t.base.Add(i), int(t.recs[i].size))
		}
	}
	i := 0
	for i < len(t.recs) && (t.recs[i].acked || t.recs[i].lost) {
		i++
	}
	t.base = t.base.Add(i)
	t.recs = t.recs[:copy(t.recs, t.recs[i:])]
}

// sameView fails the test at the first observable the two controllers
// disagree on.
func sameView(t *testing.T, seed int64, step int, ref, got *Controller) {
	t.Helper()
	type view struct {
		bw, pacing, loss  float64
		minRTT, rtt, dead time.Duration
		inFlight          int
		state             State
		canSend           bool
		delivered         int64
		rounds            uint64
	}
	look := func(c *Controller) view {
		return view{c.Bandwidth(), c.PacingRate(), c.LossRate(), c.MinRTT(), c.RTT(),
			c.NoFeedbackDeadline(), c.InFlight(), c.State(), c.CanSend(), c.delivered, c.roundCount}
	}
	if a, b := look(ref), look(got); a != b {
		t.Fatalf("seed %d step %d: OnAckVector diverged from the reference ledger\nref %+v\ngot %+v", seed, step, a, b)
	}
}

// TestLedgerDifferential drives one controller through the reference
// ledger's OnSent/OnAcked/OnLost and a second through OnSent/OnAckVector
// with the same seeded traffic: reordered arrivals, first transmissions
// that never arrive, holes filled late, vectors that stop short of the
// newest arrivals, stale vectors, up to 16 blocks, an RTT sample or none.
// Every observable must agree after every step.
func TestLedgerDifferential(t *testing.T) {
	const seeds, steps = 100, 4000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &refTracker{c: newTest()}
		got := newTest()
		for _, c := range []*Controller{ref.c, got} {
			c.Start(0)
			c.SeedRTT(0, 40*time.Millisecond)
		}

		next := seqspace.Seq(rng.Uint32())
		var (
			now     time.Duration
			rcvCum  = next               // the receiver's cumulative ack
			arrived seqspace.IntervalSet // what it holds above rcvCum
			pending = map[int][]seqspace.Seq{}
			history [][]seqspace.Range // past vectors: cum then blocks
		)
		for step := 0; step < steps; step++ {
			now += time.Duration(rng.Intn(10000)) * time.Microsecond
			for n := rng.Intn(4); n > 0; n-- {
				size := 500 + rng.Intn(1001)
				ref.onSent(now, next, size)
				got.OnSent(now, next, size)
				if rng.Intn(10) != 0 {
					at := step + 1 + rng.Intn(20)
					pending[at] = append(pending[at], next)
				}
				next = next.Next()
			}
			for _, s := range pending[step] {
				arrived.AddSeq(s)
			}
			delete(pending, step)
			if rcvCum != next && rng.Intn(5) == 0 {
				// A retransmission fills the lowest hole.
				arrived.AddSeq(rcvCum)
			}
			rcvCum = arrived.FirstMissingAfter(rcvCum)
			arrived.RemoveBefore(rcvCum)

			if rng.Intn(3) != 0 {
				continue
			}
			var cum seqspace.Seq
			var blocks []seqspace.Range
			if len(history) > 0 && rng.Intn(6) == 0 {
				// A stale vector, overtaken on the way back.
				old := history[rng.Intn(len(history))]
				cum, blocks = old[0].Lo, old[1:]
			} else {
				cum = rcvCum
				limit := next
				if rng.Intn(2) == 0 {
					// The vector left before the newest arrivals.
					limit = cum.Add(rng.Intn(cum.Distance(next) + 1))
				}
				for _, r := range arrived.Ranges() {
					if r.Lo.Less(limit) {
						blocks = append(blocks, seqspace.Range{Lo: r.Lo, Hi: seqspace.Min(r.Hi, limit)})
					}
				}
				blocks = seqspace.AppendSplit(nil, blocks, rng.Intn(17))
				history = append(history, append([]seqspace.Range{{Lo: cum}}, blocks...))
				if len(history) > 16 {
					history = history[1:]
				}
			}
			var rtt time.Duration
			if rng.Intn(2) == 0 {
				rtt = time.Duration(20+rng.Intn(80)) * time.Millisecond
			}
			ref.onAckVector(now, cum, blocks, rtt)
			got.OnAckVector(now, cum, blocks, rtt)
			sameView(t, seed, step, ref.c, got)
		}
		if got.delivered == 0 || got.lostBytes == 0 {
			t.Fatalf("seed %d: traffic exercised too little: delivered %d, lost %d",
				seed, got.delivered, got.lostBytes)
		}
	}
}

// TestLedgerWriteOffIsFinal pins the one rule the ring applies that the
// reference ledger did not: a packet OnNoFeedback wrote off and pruned
// is not credited when a vector acknowledges it late.
func TestLedgerWriteOffIsFinal(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	for seq := seqspace.Seq(1); seq <= 8; seq++ {
		c.OnSent(0, seq, testMSS)
	}
	c.OnNoFeedback(2 * time.Second)
	if c.InFlight() != 0 || len(c.ring) != 0 {
		t.Fatalf("after write-off: inflight %d, ring %d records", c.InFlight(), len(c.ring))
	}
	c.OnAckVector(2*time.Second+time.Millisecond, 9, nil, 40*time.Millisecond)
	if c.delivered != 0 {
		t.Fatalf("late ack of written-off packets credited %d bytes", c.delivered)
	}
	// The ring picks up where it left off.
	c.OnSent(3*time.Second, 9, testMSS)
	c.OnAckVector(3*time.Second+40*time.Millisecond, 10, nil, 40*time.Millisecond)
	if c.delivered != testMSS || c.InFlight() != 0 {
		t.Fatalf("next packet: delivered %d, inflight %d", c.delivered, c.InFlight())
	}
}

// TestLedgerEmptyVectorRearmsNoFeedback: a vector that covers nothing new is
// still feedback. It re-arms the nofeedback deadline, so a sender whose
// acks only repeat themselves does not write off its flight.
func TestLedgerEmptyVectorRearmsNoFeedback(t *testing.T) {
	c := newTest()
	c.Start(0)
	c.SeedRTT(0, 40*time.Millisecond)
	for seq := seqspace.Seq(1); seq <= 4; seq++ {
		c.OnSent(0, seq, testMSS)
	}
	c.OnAckVector(40*time.Millisecond, 3, nil, 40*time.Millisecond)
	before := c.NoFeedbackDeadline()
	at := before - time.Millisecond
	c.OnAckVector(at, 3, nil, 40*time.Millisecond)
	if c.delivered != 2*testMSS || c.InFlight() != 2*testMSS {
		t.Fatalf("the repeated vector moved the ledger: delivered %d, inflight %d", c.delivered, c.InFlight())
	}
	if got := c.NoFeedbackDeadline(); got <= before {
		t.Fatalf("deadline %v after a repeated vector at %v, want past %v", got, at, before)
	}
}
