// Package repro's top-level benchmarks regenerate every experiment
// table/figure (one benchmark per exhibit, named by its
// internal/experiments ID) and measure the per-packet CPU costs behind
// the E4 receiver-lightening claim.
//
// Run everything:
//
//	go test -bench=. -benchmem .
//
// Each experiment benchmark reports the elapsed wall time of one full
// quick-mode regeneration; the b.N loop re-runs the whole scenario, so
// results are directly comparable across code changes.
package repro

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

func benchExperiment(b *testing.B, run func(experiments.Config) *experiments.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := run(experiments.Config{Seed: 1, Quick: true})
		if len(tbl.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1QoSTargetSweep(b *testing.B) { benchExperiment(b, experiments.RunE1QoSTargetSweep) }
func BenchmarkE2Timeseries(b *testing.B)     { benchExperiment(b, experiments.RunE2Timeseries) }
func BenchmarkE3RTTSweep(b *testing.B)       { benchExperiment(b, experiments.RunE3RTTSweep) }
func BenchmarkE4ReceiverCost(b *testing.B)   { benchExperiment(b, experiments.RunE4ReceiverCost) }
func BenchmarkE5LossEstimationParity(b *testing.B) {
	benchExperiment(b, experiments.RunE5LossEstimationParity)
}
func BenchmarkE6SelfishReceiver(b *testing.B) { benchExperiment(b, experiments.RunE6SelfishReceiver) }
func BenchmarkE7Smoothness(b *testing.B)      { benchExperiment(b, experiments.RunE7Smoothness) }
func BenchmarkE8ReliabilityModes(b *testing.B) {
	benchExperiment(b, experiments.RunE8ReliabilityModes)
}
func BenchmarkE9LossyLink(b *testing.B)     { benchExperiment(b, experiments.RunE9LossyLink) }
func BenchmarkE10Friendliness(b *testing.B) { benchExperiment(b, experiments.RunE10Friendliness) }
func BenchmarkA1GTFRCvsTFRC(b *testing.B)   { benchExperiment(b, experiments.RunA1GTFRCvsTFRC) }
func BenchmarkA2WALIDepth(b *testing.B)     { benchExperiment(b, experiments.RunA2WALIDepth) }
func BenchmarkA3SACKBlocks(b *testing.B)    { benchExperiment(b, experiments.RunA3SACKBlocks) }

// --- E4 companion micro-benchmarks: true per-packet CPU cost of the
// receiver-side machinery QTPlight removes, versus what remains, versus
// what the sender absorbs. ns/op here is the paper's "receiver load". ---

// BenchmarkClassicReceiverPerPacket measures the full RFC 3448 receiver
// per-packet path (loss detection, WALI, rate window) under 1% loss.
func BenchmarkClassicReceiverPerPacket(b *testing.B) {
	r := tfrc.NewReceiver(tfrc.ReceiverConfig{SegmentSize: 1000})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	seq := seqspace.Seq(0)
	for i := 0; i < b.N; i++ {
		if rng.Float64() < 0.01 {
			seq = seq.Next() // drop: skip the sequence number
		}
		now := time.Duration(i) * time.Millisecond
		r.OnData(now, seq, 1000, 100*time.Millisecond)
		seq = seq.Next()
	}
}

// BenchmarkLightReceiverPerPacket measures the QTPlight receiver's
// per-packet transport work: reassembly bookkeeping only (the SACK
// vector is assembled from the same interval set).
func BenchmarkLightReceiverPerPacket(b *testing.B) {
	var received seqspace.IntervalSet
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	seq := seqspace.Seq(0)
	var blocks []seqspace.Range
	for i := 0; i < b.N; i++ {
		if rng.Float64() < 0.01 {
			seq = seq.Next()
		}
		received.AddSeq(seq)
		blocks = received.Gaps(blocks[:0], 0, seq) // SACK view
		seq = seq.Next()
		if received.Count() > 1<<16 {
			received.RemoveBefore(seq.Add(-100))
		}
	}
}

// BenchmarkSenderEstimatorPerAck measures what the QTPlight sender pays
// to absorb the shifted work: one OnAckVector per received SACK.
func BenchmarkSenderEstimatorPerAck(b *testing.B) {
	e := tfrc.NewSenderEstimator(tfrc.EstimatorConfig{SegmentSize: 1000})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	var acked seqspace.IntervalSet
	cum := seqspace.Seq(0)
	var blocks []seqspace.Range
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Millisecond
		e.OnSent(now, seqspace.Seq(i), 1000)
		if rng.Float64() < 0.01 {
			continue
		}
		acked.AddSeq(seqspace.Seq(i))
		cum = acked.FirstMissingAfter(cum)
		blocks = blocks[:0]
		for _, r := range acked.Ranges() {
			if cum.Less(r.Hi) && cum.LessEq(r.Lo) && len(blocks) < 4 {
				blocks = append(blocks, r)
			}
		}
		e.OnAckVector(now, cum, blocks, 100*time.Millisecond)
	}
}

// BenchmarkWALIUpdate isolates the loss-interval history recomputation.
func BenchmarkWALIUpdate(b *testing.B) {
	li := tfrc.NewLossIntervals(8)
	for i := 0; i < 10; i++ {
		li.SetOpen(100)
		li.Close()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		li.OnPackets(1)
		_ = li.P()
	}
}
