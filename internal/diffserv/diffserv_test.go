package diffserv

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
)

// sendCBR pushes count packets of size bytes through m at the given
// rate using simulator time.
func sendCBR(sim *netsim.Sim, m *Marker, rate float64, size, count int) {
	gap := netsim.Time(float64(size) / rate * float64(time.Second))
	for i := 0; i < count; i++ {
		sim.At(netsim.Time(i)*gap, func() {
			m.Recv(&netsim.Packet{Size: size})
		})
	}
	sim.RunUntilIdle()
}

func TestMarkerAllGreenWithinProfile(t *testing.T) {
	sim := netsim.New(1)
	var sink netsim.Sink
	// CIR 100 kB/s; send at 50 kB/s: everything in profile.
	m := NewMarker(sim, 100_000, 10_000, &sink)
	sendCBR(sim, m, 50_000, 1000, 200)
	if m.Red.Packets != 0 {
		t.Fatalf("red = %d, want 0", m.Red.Packets)
	}
	if m.Green.Packets != 200 {
		t.Fatalf("green = %d, want 200", m.Green.Packets)
	}
}

func TestMarkerExcessIsRed(t *testing.T) {
	sim := netsim.New(1)
	var sink netsim.Sink
	// CIR 50 kB/s; send at 100 kB/s: about half the traffic must be red
	// once the initial burst allowance is spent.
	m := NewMarker(sim, 50_000, 5_000, &sink)
	sendCBR(sim, m, 100_000, 1000, 2000)
	greenShare := float64(m.Green.Bytes) / float64(m.Green.Bytes+m.Red.Bytes)
	if math.Abs(greenShare-0.5) > 0.05 {
		t.Fatalf("green share = %v, want ~0.5", greenShare)
	}
}

func TestMarkerGreenRateMatchesCIR(t *testing.T) {
	sim := netsim.New(1)
	var sink netsim.Sink
	const cir = 25_000.0
	m := NewMarker(sim, cir, 2_000, &sink)
	const dur = 20 // seconds of traffic at 4x CIR
	sendCBR(sim, m, 4*cir, 500, int(4*cir*dur/500))
	greenRate := float64(m.Green.Bytes) / dur
	if math.Abs(greenRate-cir)/cir > 0.05 {
		t.Fatalf("green rate = %v, want ~%v", greenRate, cir)
	}
}

func TestMarkerBurstAllowance(t *testing.T) {
	sim := netsim.New(1)
	var sink netsim.Sink
	m := NewMarker(sim, 1_000, 5_000, &sink)
	// An instantaneous 5-packet burst of 1000 B fits in the bucket.
	for i := 0; i < 5; i++ {
		m.Recv(&netsim.Packet{Size: 1000})
	}
	if m.Red.Packets != 0 {
		t.Fatalf("burst within CBS marked red: %d", m.Red.Packets)
	}
	// The 6th does not.
	m.Recv(&netsim.Packet{Size: 1000})
	if m.Red.Packets != 1 {
		t.Fatalf("red = %d, want 1", m.Red.Packets)
	}
}

func TestMarkerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for zero CIR")
		}
	}()
	NewMarker(netsim.New(1), 0, 1, nil)
}

func TestRIOPrefersGreen(t *testing.T) {
	rio := DefaultRIO(50)
	rng := rand.New(rand.NewSource(9))
	var droppedGreen, droppedRed, sentGreen, sentRed int
	// Alternate green/red arrivals while draining slowly, so the queue
	// sits in the congested region.
	for i := 0; i < 50000; i++ {
		mark := netsim.MarkGreen
		if i%2 == 0 {
			mark = netsim.MarkRed
		}
		p := &netsim.Packet{Size: 100, Mark: mark}
		ok := rio.Enqueue(0, rng, p)
		if mark == netsim.MarkGreen {
			sentGreen++
			if !ok {
				droppedGreen++
			}
		} else {
			sentRed++
			if !ok {
				droppedRed++
			}
		}
		if i%3 != 0 { // drain more slowly than we fill
			rio.Dequeue(0)
		}
	}
	gRate := float64(droppedGreen) / float64(sentGreen)
	rRate := float64(droppedRed) / float64(sentRed)
	if rRate <= 2*gRate {
		t.Fatalf("RIO not protecting green: green drop %v, red drop %v", gRate, rRate)
	}
}

func TestRIOUncongestedNoDrops(t *testing.T) {
	rio := DefaultRIO(100)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		p := &netsim.Packet{Size: 100, Mark: netsim.MarkRed}
		if !rio.Enqueue(0, rng, p) {
			t.Fatal("uncongested RIO dropped")
		}
		rio.Dequeue(0)
	}
}

func TestRIOHardLimit(t *testing.T) {
	rio := &RIO{
		In:        netsim.REDCurve{MinTh: 1e9, MaxTh: 2e9, MaxP: 0},
		Out:       netsim.REDCurve{MinTh: 1e9, MaxTh: 2e9, MaxP: 0},
		Wq:        0.002,
		LimitPkts: 10,
	}
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for i := 0; i < 20; i++ {
		if rio.Enqueue(0, rng, &netsim.Packet{Size: 1, Mark: netsim.MarkGreen}) {
			accepted++
		}
	}
	if accepted != 10 {
		t.Fatalf("accepted = %d, want 10", accepted)
	}
	if rio.ForcedDrops != 10 {
		t.Fatalf("forced = %d, want 10", rio.ForcedDrops)
	}
}

func TestRIOFIFOAndAccounting(t *testing.T) {
	rio := DefaultRIO(100)
	rng := rand.New(rand.NewSource(2))
	marks := []netsim.Mark{netsim.MarkGreen, netsim.MarkRed, netsim.MarkGreen}
	for i, mk := range marks {
		rio.Enqueue(0, rng, &netsim.Packet{Flow: netsim.FlowID(i), Size: 10, Mark: mk})
	}
	if rio.Len() != 3 || rio.Bytes() != 30 || rio.GreenLen() != 2 {
		t.Fatalf("Len=%d Bytes=%d Green=%d", rio.Len(), rio.Bytes(), rio.GreenLen())
	}
	for i := 0; i < 3; i++ {
		p := rio.Dequeue(0)
		if p.Flow != netsim.FlowID(i) {
			t.Fatalf("out of order: %d", p.Flow)
		}
	}
	if rio.Len() != 0 || rio.Bytes() != 0 || rio.GreenLen() != 0 {
		t.Fatal("accounting not restored after drain")
	}
	if rio.Dequeue(0) != nil {
		t.Fatal("empty dequeue should be nil")
	}
}

func TestRIOAsLinkQueue(t *testing.T) {
	// Integration: a bottleneck with a RIO queue behind a marker, fed
	// above capacity, delivers green traffic at nearly the committed rate.
	sim := netsim.New(4)
	var sink netsim.Sink
	const linkRate = 100_000.0 // 100 kB/s bottleneck
	bottleneck := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "bn", Rate: linkRate, Delay: time.Millisecond,
		Queue: DefaultRIO(50), Dst: &sink,
	})
	var greenDelivered int
	bottleneck.Tap = func(now netsim.Time, p *netsim.Packet) {
		if p.Mark == netsim.MarkGreen {
			greenDelivered += p.Size
		}
	}
	const cir = 50_000.0 // half the link reserved
	m := NewMarker(sim, cir, 5_000, bottleneck)
	// Offer 200 kB/s — twice the link rate, four times the CIR.
	const dur = 30
	sendCBR(sim, m, 200_000, 1000, 200*dur)
	greenRate := float64(greenDelivered) / dur
	if greenRate < 0.9*cir {
		t.Fatalf("green delivered at %v B/s, want >= 90%% of CIR %v", greenRate, cir)
	}
}

func TestTokenInterval(t *testing.T) {
	if got := TokenInterval(1000, 500); got != 500*time.Millisecond {
		t.Fatalf("TokenInterval = %v", got)
	}
}
