package qtp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// frameTap hashes every frame one endpoint puts on the wire, in emission
// order, before handing it to the link.
type frameTap struct {
	side byte
	h    hash.Hash
	n    *int
	next netsim.Handler
}

func (t frameTap) Recv(p *netsim.Packet) {
	frame := p.Payload.([]byte)
	var hdr [5]byte
	hdr[0] = t.side
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(frame)))
	t.h.Write(hdr[:])
	t.h.Write(frame)
	*t.n++
	t.next.Recv(p)
}

// traceCase is one composition driven over the same lossy path by the
// same application script: three patterned writes on stream 0 (the first
// before the flow starts, so it precedes the handshake), optionally a
// second stream, then CloseSend either right behind the last write (FIN
// rides the final data segment) or long after the backlog drained (bare
// FIN segment).
type traceCase struct {
	name       string
	profile    core.Profile
	handshake  bool
	cons       core.Constraints
	lateClose  bool
	second     packet.StreamMode // mode of a second stream; used when twoStreams
	twoStreams bool
	want       string
}

func traceProfile(rel packet.ReliabilityMode, fb packet.FeedbackMode, deadline time.Duration) core.Profile {
	return core.Profile{Reliability: rel, Feedback: fb, Deadline: deadline, MSS: 1000}
}

func withBBR(p core.Profile) core.Profile {
	p.Congestion = packet.CongestionBBR
	return p
}

func withStreams(p core.Profile, n int) core.Profile {
	p.MaxStreams = n
	return p
}

// traceDeadline is three round trips of the trace path: tight enough that
// some retransmissions miss it and are abandoned.
const traceDeadline = 90 * time.Millisecond

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	return b
}

// runTrace plays one case and returns its fingerprint: frames emitted by
// each side, bytes delivered, a digest of every emitted frame (both
// sides, emission order) and a digest of each stream's delivered bytes.
func runTrace(t *testing.T, tc traceCase) string {
	t.Helper()
	p := newTestPath(77, 250_000, 15*time.Millisecond, &netsim.DropTail{},
		netsim.Bernoulli{P: 0.08})
	p.rev = netsim.NewLink(p.sim, netsim.LinkConfig{
		Name: "rev", Rate: 125e6, Delay: 15 * time.Millisecond,
		Queue: &netsim.DropTail{}, Loss: netsim.Bernoulli{P: 0.03}, Dst: p.toSend,
	})
	frames := sha256.New()
	var sent, acked int
	f := StartFlow(p.sim, FlowConfig{
		ID:          1,
		Profile:     tc.profile,
		Handshake:   tc.handshake,
		Constraints: tc.cons,
		RTTHint:     30 * time.Millisecond,
		Fwd:         frameTap{'S', frames, &sent, p.fwd},
		Rev:         frameTap{'R', frames, &acked, p.rev},
	})
	p.toSend.Target = f.SenderEntry()

	// The receiver entry is Flow.ReceiverEntry with a drain that keeps
	// the bytes instead of only counting them.
	delivered := map[uint64]hash.Hash{}
	drain := func() {
		for {
			id, chunk, ok := f.Receiver.ReadAny()
			if !ok {
				return
			}
			if delivered[id] == nil {
				delivered[id] = sha256.New()
			}
			delivered[id].Write(chunk)
			f.DeliveredBytes += len(chunk)
			bufpool.PutChunk(chunk)
		}
	}
	p.toRecv.Target = netsim.HandlerFunc(func(pk *netsim.Packet) {
		_ = f.Receiver.HandleFrame(p.sim.Now(), pk.Payload.([]byte))
		drain()
		f.pumpReceiver()
	})

	const chunk = 60_000
	closeAll := func(ids ...uint64) {
		for _, id := range ids {
			if err := f.Sender.CloseStream(id); err != nil {
				t.Fatalf("CloseStream(%d): %v", id, err)
			}
		}
		f.Pump()
	}
	// Write before Start/StartDirect: the data must ride stream 0 once
	// the layout is settled.
	if n := f.Sender.Write(pattern(chunk, 0)); n != chunk {
		t.Fatalf("pre-start Write accepted %d of %d", n, chunk)
	}
	ids := []uint64{0}
	// The rest of the script waits for the connection to be established
	// (the handshake may need retries on this path).
	var script func()
	script = func() {
		if f.Sender.State() != StateEstablished {
			p.sim.After(50*time.Millisecond, script)
			return
		}
		f.Sender.Write(pattern(chunk, 1))
		if tc.twoStreams {
			id, err := f.Sender.OpenStream(tc.second, traceDeadline)
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			ids = append(ids, id)
			f.Sender.WriteStream(id, pattern(chunk, 2))
		}
		f.Pump()
		p.sim.After(200*time.Millisecond, func() {
			f.Sender.Write(pattern(chunk, 3))
			if tc.twoStreams {
				f.Sender.WriteStream(ids[1], pattern(chunk/2, 4))
			}
			if !tc.lateClose {
				closeAll(ids...)
				return
			}
			f.Pump()
			p.sim.After(20*time.Second, func() {
				if n := f.Sender.BacklogLen(); n != 0 {
					t.Fatalf("late close with %d bytes still queued", n)
				}
				closeAll(ids...)
			})
		})
	}
	p.sim.At(200*time.Millisecond, script)
	p.sim.Run(90 * time.Second)
	drain()

	if st := f.Sender.State(); st != StateClosed {
		t.Fatalf("sender state %v, want closed", st)
	}
	streams := make([]uint64, 0, len(delivered))
	for id := range delivered {
		streams = append(streams, id)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i] < streams[j] })
	bytes := sha256.New()
	for _, id := range streams {
		fmt.Fprintf(bytes, "%d:%x;", id, delivered[id].Sum(nil))
	}
	return fmt.Sprintf("S%d R%d D%d frames=%x bytes=%x",
		sent, acked, f.DeliveredBytes, frames.Sum(nil)[:8], bytes.Sum(nil)[:8])
}

// TestFrameTraceEquivalence pins the wire behaviour of every composition
// the engine serves: each case's fingerprint was generated before stream
// 0 became an ordinary stream and must not move — a shifted header,
// block list, FIN placement or retransmit choice changes the digest.
func TestFrameTraceEquivalence(t *testing.T) {
	full, partial, none := packet.ReliabilityFull, packet.ReliabilityPartial, packet.ReliabilityNone
	classic, light := packet.FeedbackReceiverLoss, packet.FeedbackSenderLoss
	refuse := core.Permissive(1e6)
	refuse.MaxStreams = 0
	qtpaf := traceProfile(full, classic, 0)
	qtpaf.TargetRate = 80_000
	cases := []traceCase{
		{name: "qtpaf/handshake",
			want:    "S199 R78 D180000 frames=cd752d8170aede4a bytes=e1299822277f56b7",
			profile: qtpaf, handshake: true, cons: core.Permissive(1e6)},
		{name: "qtpaf/late-fin",
			want:    "S197 R78 D180000 frames=6b192c08f5a59b16 bytes=e1299822277f56b7",
			profile: qtpaf, lateClose: true},
		{name: "light-reliable",
			want:    "S195 R181 D180000 frames=03581d570a56a29a bytes=e1299822277f56b7",
			profile: traceProfile(full, light, 0)},
		{name: "light-reliable/handshake/late-fin",
			want:      "S205 R190 D180000 frames=c917789fdf2aa163 bytes=e1299822277f56b7",
			profile:   traceProfile(full, light, 0),
			handshake: true, cons: core.Permissive(1e6), lateClose: true},
		{name: "partial",
			want:    "S189 R176 D175000 frames=faa406f20e8bb27a bytes=67635bd2ffcff09b",
			profile: traceProfile(partial, light, traceDeadline)},
		{name: "partial/late-fin",
			want:    "S190 R177 D175000 frames=27a49a876e91aa09 bytes=67635bd2ffcff09b",
			profile: traceProfile(partial, light, traceDeadline), lateClose: true},
		{name: "partial-classic",
			want:    "S190 R63 D179000 frames=37d91ac6ce6bbdcb bytes=3ab344fe4b7469fd",
			profile: traceProfile(partial, classic, traceDeadline)},
		{name: "none-light",
			want:    "S181 R167 D166000 frames=935d5747d797f155 bytes=9c146744b463837a",
			profile: traceProfile(none, light, 0)},
		{name: "none-classic/late-fin",
			want:    "S182 R56 D173000 frames=f0c6f043da742273 bytes=a0a13f56fbffe7bb",
			profile: traceProfile(none, classic, 0), lateClose: true},
		{name: "bbr-reliable",
			want:    "S193 R181 D180000 frames=521d36bd43858377 bytes=e1299822277f56b7",
			profile: withBBR(traceProfile(full, light, 0))},
		{name: "bbr-none/late-fin",
			want:    "S182 R171 D169000 frames=4e371bbff8251be6 bytes=20b4582e8f97c1f7",
			profile: withBBR(traceProfile(none, light, 0)), lateClose: true},
		{name: "streams/expiring",
			want:       "S287 R106 D267000 frames=5f6c596d5fb4053b bytes=5ba709a3dbb36bd3",
			profile:    withStreams(qtpaf, 8),
			twoStreams: true, second: packet.StreamExpiring},
		{name: "streams/unordered/handshake/late-fin",
			want:      "S304 R122 D270000 frames=55611869d3343b88 bytes=6f2e46d81d8860d7",
			profile:   withStreams(qtpaf, 8),
			handshake: true, cons: core.Permissive(1e6),
			twoStreams: true, second: packet.StreamReliableUnordered, lateClose: true},
		{name: "streams/partial-light",
			want:       "S282 R262 D261000 frames=d034c8783fadcc23 bytes=8ca1fb5610e44a71",
			profile:    withStreams(traceProfile(partial, light, traceDeadline), 4),
			twoStreams: true, second: packet.StreamReliableOrdered},
		{name: "streams/bbr",
			want:       "S289 R271 D270000 frames=7f7e6497cd139dcc bytes=ae8fd245950a3266",
			profile:    withStreams(withBBR(traceProfile(full, light, 0)), 4),
			twoStreams: true, second: packet.StreamReliableUnordered},
		{name: "streams/refused",
			want:    "S199 R78 D180000 frames=c1f8115cae1131bb bytes=e1299822277f56b7",
			profile: withStreams(qtpaf, 8), handshake: true, cons: refuse},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := runTrace(t, tc); got != tc.want {
				t.Fatalf("frame trace moved:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
