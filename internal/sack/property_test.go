package sack

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/seqspace"
)

// Model-based property test: drive a SendBuffer/Reassembler pair through
// randomized loss, reordering, duplication and feedback schedules and
// assert the end-to-end reliability invariants that the unit tests only
// probe pointwise:
//
//  1. full reliability delivers every byte exactly once, in order;
//  2. the sender's buffer drains (no leaked segments);
//  3. the receiver's cumulative ack never exceeds the sender's nextSeq;
//  4. under partial reliability, everything delivered is a prefix-
//     respecting subsequence (no duplication, no reordering) and young
//     segments are never abandoned.
func TestReliabilityModelCheck(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		full := trial%2 == 0
		deadline := time.Duration(0)
		if !full {
			deadline = 80 * time.Millisecond
		}
		sb := NewSendBuffer(deadline)
		ra := NewReassembler(0, deadline+deadline/2)
		if full {
			ra = NewReassembler(0, 0)
		}

		const n = 120
		now := time.Duration(0)
		type inflight struct {
			seq     seqspace.Seq
			payload []byte
			at      time.Duration
		}
		var network []inflight // packets in flight, delivered out of order

		deliverSome := func() {
			// Deliver a random subset of the network, possibly reordered,
			// possibly duplicated, dropping ~20%.
			rng.Shuffle(len(network), func(i, j int) {
				network[i], network[j] = network[j], network[i]
			})
			kept := network[:0]
			for _, p := range network {
				switch {
				case rng.Float64() < 0.2: // lost
				case rng.Float64() < 0.1: // duplicated
					ra.OnData(now, p.seq, p.payload, int(p.seq) == n-1)
					ra.OnData(now, p.seq, p.payload, int(p.seq) == n-1)
				default:
					ra.OnData(now, p.seq, p.payload, int(p.seq) == n-1)
				}
			}
			network = kept
		}

		for i := 0; i < n; i++ {
			now += 2 * time.Millisecond
			payload := pay(i)
			sb.Add(now, seqspace.Seq(i), payload)
			network = append(network, inflight{seqspace.Seq(i), payload, now})
			if rng.Intn(4) == 0 {
				deliverSome()
				blocks := ra.Blocks(nil, 16)
				sb.OnSACK(now, ra.CumAck(), blocks)
			}
		}
		// Drain: alternate feedback and retransmission rounds.
		for round := 0; round < 200; round++ {
			now += 10 * time.Millisecond
			deliverSome()
			ra.OnDeadline(now)
			blocks := ra.Blocks(nil, 16)
			sb.OnSACK(now, ra.CumAck(), blocks)
			for {
				seq, _, p, ok := sb.NextRetransmitSeg(now, 100*time.Millisecond)
				if !ok {
					break
				}
				if rng.Float64() < 0.15 {
					continue // retransmission lost too
				}
				network = append(network, inflight{seq, p, now})
			}
			if !sb.Unresolved() && len(network) == 0 {
				break
			}
		}

		// Let any remaining partial-reliability hole timers expire so the
		// receiver releases everything it buffered. Each hole gets its
		// own grace period, so chained holes need successive expiries.
		for i := 0; i < n && ra.Buffered() > 0; i++ {
			now += time.Second
			ra.OnDeadline(now)
		}

		// Invariant 3.
		if got := ra.CumAck(); got.Greater(seqspace.Seq(n)) {
			t.Fatalf("trial %d: cumack %d beyond stream end %d", trial, got, n)
		}
		// Invariants 1, 2, 4.
		if sb.Unresolved() {
			t.Fatalf("trial %d: send buffer did not drain (full=%v)", trial, full)
		}
		prev := -1
		delivered := 0
		for {
			p, ok := ra.Pop()
			if !ok {
				break
			}
			idx := payloadIndex(t, p)
			if idx <= prev {
				t.Fatalf("trial %d: out-of-order/duplicate delivery %d after %d", trial, idx, prev)
			}
			prev = idx
			delivered++
		}
		if full && delivered != n {
			t.Fatalf("trial %d: full reliability delivered %d of %d", trial, delivered, n)
		}
		if !full {
			// Liveness: after the deadlines expire nothing stays in
			// limbo — every buffered segment was either delivered or
			// released past a skipped hole. (The cumulative ack may stop
			// short of n if the stream's tail was wholly lost: a receiver
			// cannot skip past data it never learned about; teardown is
			// the Close frame's job, not the reassembler's.)
			if ra.Buffered() != 0 {
				t.Fatalf("trial %d: %d segments stuck behind expired holes",
					trial, ra.Buffered())
			}
		}
	}
}

// payloadIndex decodes the "seg-0042" payloads produced by pay().
func payloadIndex(t *testing.T, p []byte) int {
	t.Helper()
	idx, err := strconv.Atoi(string(p[4:]))
	if err != nil {
		t.Fatalf("bad payload %q: %v", p, err)
	}
	return idx
}
