package tfrc

import (
	"math"
	"testing"
	"time"

	"repro/internal/seqspace"
)

const msRTT = 100 * time.Millisecond

// feed delivers sequence numbers to r at 1 ms spacing, skipping those in
// the lost set, and returns the number of urgent-feedback signals.
func feed(r *Receiver, from, to int, lost map[int]bool, size int) int {
	urgent := 0
	for i := from; i < to; i++ {
		if lost[i] {
			continue
		}
		now := time.Duration(i) * time.Millisecond
		if r.OnData(now, seqspace.Seq(i), size, msRTT) {
			urgent++
		}
	}
	return urgent
}

func TestReceiverFirstPacketFeedback(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	if !r.OnData(0, 0, 1000, msRTT) {
		t.Fatal("first packet must request immediate feedback")
	}
	if r.OnData(time.Millisecond, 1, 1000, msRTT) {
		t.Fatal("ordinary packet must not request immediate feedback")
	}
}

func TestReceiverNoLossKeepsPZero(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	feed(r, 0, 500, nil, 1000)
	if r.P() != 0 {
		t.Fatalf("p = %v without loss", r.P())
	}
}

func TestReceiverDetectsSingleLoss(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	urgent := feed(r, 0, 100, map[int]bool{50: true}, 1000)
	// First packet + the loss event = 2 urgent signals.
	if urgent != 2 {
		t.Fatalf("urgent = %d, want 2", urgent)
	}
	if r.P() <= 0 {
		t.Fatal("loss not reflected in p")
	}
}

func TestReceiverDupThresh(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	r.OnData(0, 0, 1000, msRTT)
	r.OnData(1*time.Millisecond, 1, 1000, msRTT)
	// Skip 2; deliver 3 and 4: only 2 packets above the hole.
	r.OnData(3*time.Millisecond, 3, 1000, msRTT)
	r.OnData(4*time.Millisecond, 4, 1000, msRTT)
	if r.P() != 0 {
		t.Fatal("hole declared lost with only 2 packets above it")
	}
	// Third higher packet: now the hole is lost.
	if !r.OnData(5*time.Millisecond, 5, 1000, msRTT) {
		t.Fatal("loss event not signalled at dupthresh")
	}
	if r.P() <= 0 {
		t.Fatal("p still zero after declared loss")
	}
}

func TestReceiverReorderingIsNotLoss(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	order := []int{0, 1, 3, 2, 4, 6, 5, 7}
	for i, s := range order {
		r.OnData(time.Duration(i)*time.Millisecond, seqspace.Seq(s), 1000, msRTT)
	}
	if r.P() != 0 {
		t.Fatalf("reordering produced p = %v", r.P())
	}
}

func TestReceiverBurstIsOneEvent(t *testing.T) {
	// Losses within one RTT coalesce into a single loss event, so a
	// 5-packet burst must yield the same interval count as one loss.
	burst := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	lost := map[int]bool{50: true, 51: true, 52: true, 53: true, 54: true}
	feed(burst, 0, 200, lost, 1000)

	single := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	feed(single, 0, 200, map[int]bool{50: true}, 1000)

	if burst.wali.Seeded() != single.wali.Seeded() {
		t.Fatal("seeding mismatch")
	}
	if lb, ls := len(burst.wali.intervals), len(single.wali.intervals); lb != ls {
		t.Fatalf("burst created %d intervals, single loss %d", lb, ls)
	}
}

func TestReceiverSeparatedLossesAreTwoEvents(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	// Losses 200 ms apart (2 RTTs at 1 ms per packet).
	feed(r, 0, 500, map[int]bool{100: true, 300: true}, 1000)
	// Seed interval + one closed interval from the second event.
	if got := len(r.wali.intervals); got != 3 {
		t.Fatalf("intervals = %d, want 3 (open + seed + closed)", got)
	}
}

func TestReceiverSteadyLossRate(t *testing.T) {
	// 1 loss every 100 packets, spaced well beyond the RTT in time:
	// p must converge near 0.01.
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	lost := map[int]bool{}
	for i := 50; i < 5000; i += 100 {
		lost[i] = true
	}
	feed(r, 0, 5000, lost, 1000)
	p := r.P()
	if p < 0.005 || p > 0.02 {
		t.Fatalf("p = %v, want ~0.01", p)
	}
}

func TestReceiverXRecvMeasurement(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	// 100 packets of 1000 B over 100 ms = 1 MB/s.
	feed(r, 0, 100, nil, 1000)
	x, p := r.MakeReport(100 * time.Millisecond)
	if math.Abs(x-1e6)/1e6 > 0.05 {
		t.Fatalf("X_recv = %v, want ~1e6", x)
	}
	if p != 0 {
		t.Fatalf("p = %v", p)
	}
	// Window resets: an immediate second report sees no new bytes.
	x2, _ := r.MakeReport(200 * time.Millisecond)
	if x2 != 0 {
		t.Fatalf("window not reset: %v", x2)
	}
}

func TestReceiverDuplicateIgnored(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	r.OnData(0, 0, 1000, msRTT)
	r.OnData(time.Millisecond, 1, 1000, msRTT)
	before := r.windowBytes
	r.OnData(2*time.Millisecond, 1, 1000, msRTT) // duplicate
	if r.windowBytes != before {
		t.Fatal("duplicate counted towards X_recv")
	}
}

func TestReceiverFeedbackInterval(t *testing.T) {
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	if r.FeedbackInterval() != 100*time.Millisecond {
		t.Fatal("default feedback interval")
	}
	// Once per announced RTT, but never more often than the floor.
	for i, c := range []struct{ rtt, want time.Duration }{
		{50 * time.Microsecond, feedbackFloor},
		{999 * time.Microsecond, feedbackFloor},
		{time.Millisecond, time.Millisecond},
		{40 * time.Millisecond, 40 * time.Millisecond},
	} {
		r.OnData(time.Duration(i)*time.Millisecond, seqspace.Seq(i), 1000, c.rtt)
		if got := r.FeedbackInterval(); got != c.want {
			t.Fatalf("announced RTT %v: feedback interval %v, want %v", c.rtt, got, c.want)
		}
	}
}

// TestFeedbackFloorBytes pins the cap under the report floor: below a
// 1 ms RTT a report is due once feedbackBytes arrived since the last
// one; at an RTT the floor does not hold back, or before any RTT is
// announced, arrivals alone never make one due.
func TestFeedbackFloorBytes(t *testing.T) {
	const size = 1400
	perReport := (feedbackBytes + size - 1) / size
	for _, c := range []struct {
		rtt  time.Duration
		want int
	}{
		{50 * time.Microsecond, 4},
		{0, 0},
		{time.Millisecond, 0},
		{40 * time.Millisecond, 0},
	} {
		r := NewReceiver(ReceiverConfig{SegmentSize: size})
		r.OnData(0, 0, size, c.rtt) // the first packet is always due
		r.MakeReport(0)
		due := 0
		for i := 1; i <= 4*perReport; i++ {
			now := time.Duration(i) * time.Microsecond
			if !r.OnData(now, seqspace.Seq(i), size, c.rtt) {
				continue
			}
			if got := r.PendingBytes(); got != perReport*size {
				t.Fatalf("RTT %v: report due with %d bytes pending, want %d", c.rtt, got, perReport*size)
			}
			due++
			r.MakeReport(now)
		}
		if due != c.want {
			t.Fatalf("RTT %v: %d reports due on bytes over %d arrivals, want %d", c.rtt, due, 4*perReport, c.want)
		}
	}
}

func TestReceiverSeedMatchesXRecv(t *testing.T) {
	// After the first loss, p should be seeded so the equation yields
	// roughly the pre-loss receive rate.
	r := NewReceiver(ReceiverConfig{SegmentSize: 1000})
	feed(r, 0, 200, map[int]bool{150: true}, 1000)
	p := r.P()
	x := Throughput(1000, msRTT, p)
	// The rate was ~1 MB/s (1000 B per ms).
	if x < 2e5 || x > 5e6 {
		t.Fatalf("seeded equation rate = %v, want near 1e6", x)
	}
}

// TestReceiverRetransmissionFirst gives a receiver a retransmission
// before any original, then 2,000 originals with one in 50 lost. Loss
// detection must start at the first original all the same: the same p
// and the same trimmed received set as a receiver that saw no
// retransmission, not p = 0 and a set that grows with every hole.
func TestReceiverRetransmissionFirst(t *testing.T) {
	lost := map[int]bool{}
	for i := 49; i < 2000; i += 50 {
		lost[i] = true
	}
	plain, retxFirst := NewReceiver(ReceiverConfig{SegmentSize: 1000}), NewReceiver(ReceiverConfig{SegmentSize: 1000})
	retxFirst.OnRetransmit(0, 1000)
	feed(plain, 0, 2000, lost, 1000)
	feed(retxFirst, 0, 2000, lost, 1000)
	if plain.P() == 0 {
		t.Fatal("p = 0 with one packet in 50 lost")
	}
	if a, b := retxFirst.P(), plain.P(); a != b {
		t.Fatalf("p = %v after a leading retransmission, %v without", a, b)
	}
	if a, b := retxFirst.received.Ranges(), plain.received.Ranges(); len(a) != len(b) || len(a) > 1 {
		t.Fatalf("received ranges %v after a leading retransmission, %v without", a, b)
	}
}
