package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/diffserv"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qtp"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// dumbbell is the canonical evaluation topology: per-flow access links
// feeding one shared bottleneck, a demultiplexing router at the far
// side, and clean per-flow reverse paths for feedback/ACKs.
type dumbbell struct {
	sim        *netsim.Sim
	bottleneck *netsim.Link
	router     *netsim.Router
	delay      time.Duration
	nextID     netsim.FlowID
}

// newDumbbell builds the topology. rate is the bottleneck in bytes/s,
// delay the one-way propagation per direction (so base RTT = 2*delay),
// queue the bottleneck discipline.
func newDumbbell(seed int64, rate float64, delay time.Duration, queue netsim.Queue) *dumbbell {
	sim := netsim.New(seed)
	router := netsim.NewRouter(nil)
	bn := netsim.NewLink(sim, netsim.LinkConfig{
		Name: "bottleneck", Rate: rate, Delay: delay, Queue: queue, Dst: router,
	})
	return &dumbbell{sim: sim, bottleneck: bn, router: router, delay: delay, nextID: 1}
}

func (d *dumbbell) id() netsim.FlowID {
	id := d.nextID
	d.nextID++
	return id
}

// revLink builds an uncongested reverse path for one flow.
func (d *dumbbell) revLink(dst netsim.Handler) *netsim.Link {
	return netsim.NewLink(d.sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: d.delay,
		Queue: &netsim.DropTail{}, Dst: dst,
	})
}

// addQTP attaches a QTP flow whose data enters the bottleneck through an
// optional DiffServ marker (cir > 0). Returns the flow.
func (d *dumbbell) addQTP(profile core.Profile, cir float64, bulk bool, src workload.Source, start netsim.Time) *qtp.Flow {
	id := d.id()
	toSend := &netsim.Indirect{}
	rev := d.revLink(toSend)

	var entry netsim.Handler = d.bottleneck
	if cir > 0 {
		entry = diffserv.NewMarker(d.sim, cir, 2*cir*0.1, d.bottleneck)
	}
	f := qtp.StartFlow(d.sim, qtp.FlowConfig{
		ID:      id,
		Profile: profile,
		RTTHint: 2 * d.delay,
		Fwd:     entry,
		Rev:     rev,
		Bulk:    bulk,
		Source:  src,
		Start:   start,
	})
	toRecv := &netsim.Indirect{Target: f.ReceiverEntry()}
	toSend.Target = f.SenderEntry()
	d.router.Route(id, toRecv)
	return f
}

// addTCP attaches a TCP flow, optionally through a DiffServ marker.
func (d *dumbbell) addTCP(cir float64, total int64, start netsim.Time) *tcp.Flow {
	id := d.id()
	toSend := &netsim.Indirect{}
	rev := d.revLink(toSend)

	var entry netsim.Handler = d.bottleneck
	if cir > 0 {
		entry = diffserv.NewMarker(d.sim, cir, 2*cir*0.1, d.bottleneck)
	}
	f := tcp.StartFlow(d.sim, tcp.Config{
		ID: id, Fwd: entry, Rev: rev, Total: total, Start: start,
	})
	toRecv := &netsim.Indirect{Target: f.ReceiverEntry()}
	toSend.Target = f.SenderEntry()
	d.router.Route(id, toRecv)
	return f
}

// addCrossCBR injects unresponsive constant-bit-rate cross traffic
// straight into the bottleneck (no transport, best-effort marking) — the
// "heavily loaded class" condition of the AF experiments.
func (d *dumbbell) addCrossCBR(rate float64, pktSize int) {
	id := d.id()
	var sink netsim.Sink
	d.router.Route(id, &sink)
	gap := time.Duration(float64(pktSize) / rate * float64(time.Second))
	var tick func()
	tick = func() {
		d.bottleneck.Send(&netsim.Packet{Flow: id, Size: pktSize})
		d.sim.After(gap, tick)
	}
	d.sim.After(gap, tick)
}

// lossyPath is a single-flow path with a loss model on the data
// direction — the wireless/multi-hop scenario of E7/E9 and the light
// experiments.
type lossyPath struct {
	sim      *netsim.Sim
	fwd, rev *netsim.Link
	toRecv   *netsim.Indirect
	toSend   *netsim.Indirect
}

func newLossyPath(seed int64, rate float64, delay time.Duration, queue netsim.Queue, loss netsim.LossModel) *lossyPath {
	sim := netsim.New(seed)
	p := &lossyPath{sim: sim, toRecv: &netsim.Indirect{}, toSend: &netsim.Indirect{}}
	p.fwd = netsim.NewLink(sim, netsim.LinkConfig{
		Name: "fwd", Rate: rate, Delay: delay, Queue: queue, Loss: loss, Dst: p.toRecv,
	})
	p.rev = netsim.NewLink(sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: delay, Queue: &netsim.DropTail{}, Dst: p.toSend,
	})
	return p
}

// qtpFlowCfg bundles the common single-flow configuration.
func qtpFlowCfg(profile core.Profile, bulk bool, src workload.Source) qtp.FlowConfig {
	return qtp.FlowConfig{
		Profile: profile,
		RTTHint: 40 * time.Millisecond,
		Bulk:    bulk,
		Source:  src,
	}
}

// qtp starts a flow on the path. A caller-set cfg.Rev is kept: it must
// hand on to p.rev.
func (p *lossyPath) qtp(cfg qtp.FlowConfig) *qtp.Flow {
	cfg.ID = 1
	cfg.Fwd = p.fwd
	if cfg.Rev == nil {
		cfg.Rev = p.rev
	}
	f := qtp.StartFlow(p.sim, cfg)
	p.toRecv.Target = f.ReceiverEntry()
	p.toSend.Target = f.SenderEntry()
	return f
}

func (p *lossyPath) tcp(cfg tcp.Config) *tcp.Flow {
	cfg.ID = 1
	cfg.Fwd = p.fwd
	cfg.Rev = p.rev
	f := tcp.StartFlow(p.sim, cfg)
	p.toRecv.Target = f.ReceiverEntry()
	p.toSend.Target = f.SenderEntry()
	return f
}

// liar is a selfish receiver on the wire (Georg & Gorinsky): at the head
// of a reverse path it rewrites each classic receiver report to claim
// factor times the receive rate and 1/factor of the loss event rate.
// Every other frame, and a report it cannot parse, passes untouched.
type liar struct {
	factor float64
	next   netsim.Handler
}

// Recv implements netsim.Handler.
func (l liar) Recv(p *netsim.Packet) {
	frame, _ := p.Payload.([]byte)
	var hdr packet.Header
	var fb packet.Feedback
	if payload, err := hdr.Parse(frame); err == nil && hdr.Type == packet.TypeFeedback && fb.Parse(payload) == nil {
		fb.XRecv = uint64(float64(fb.XRecv) * l.factor)
		fb.LossRate /= l.factor
		if forged, err := fb.AppendTo(hdr.AppendTo(nil)); err == nil {
			p.Payload = forged
		}
	}
	l.next.Recv(p)
}
