package qtpnet

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// gsoCaps is the capabilities of a writer that accepts segment trains
// of up to maxSegs, so tests can drive the train path without a
// GSO-capable kernel.
func gsoCaps(maxSegs int32) *pathCaps {
	caps := &pathCaps{batch: true}
	caps.gsoMaxSegs.Store(maxSegs)
	return caps
}

// trainShard is a bare shard, its loop not running, whose scheduler
// writes to w as a segment-offload socket would be written.
func trainShard(t *testing.T, w batchWriter) *shard {
	t.Helper()
	sh := manualShard(t)
	sh.caps = gsoCaps(gsoMaxSegments)
	sh.tx = newSendScheduler(w, sh.caps, txBatch, nil)
	return sh
}

// trainConn puts a sans-IO connection on sh, bound for the peer at port.
func trainConn(sh *shard, port uint16, inner *qtp.Conn) *Conn {
	c := newConn(sh, testAddr(port), 1)
	c.inner = inner
	c.validated.Store(true)
	return c
}

// directSender is an established, unencrypted sender at 1 GB/s: its
// first poll after a write sends a 64-frame pacing quantum, a poll
// 1 ms later 79 frames.
func directSender(mss int, streams int) *qtp.Conn {
	prof := core.QTPAF(1e9)
	prof.MSS = mss
	if streams > 1 {
		prof.MaxStreams = streams
	}
	c := qtp.NewConn(qtp.Config{Initiator: true, Profile: prof, ConnID: 1})
	c.StartDirect(0, prof, time.Millisecond)
	return c
}

// segments splits a message the writer was given into its wire
// datagrams.
func segments(m ioMsg) [][]byte {
	if m.segSize == 0 || m.n <= m.segSize {
		return [][]byte{m.buf[:m.n]}
	}
	var out [][]byte
	for off := 0; off < m.n; off += m.segSize {
		out = append(out, m.buf[off:min(off+m.segSize, m.n)])
	}
	return out
}

// TestPollSealTrains is the train-building rule, checked at pollSeal on
// a writer with segment offload. Every connection has an identical twin
// polled one frame at a time; the datagrams pollSeal's trains carry must
// be the twin's frames, in poll order, with no gap and nothing added,
// and each case pins how they were cut into messages (segments per
// message, in order).
func TestPollSealTrains(t *testing.T) {
	const mss = 1400
	for _, tc := range []struct {
		name   string
		mss    int
		writes []int           // bytes per stream: stream 0, then streams it opens
		conns  int             // connections, polled in turn at each instant
		polls  []time.Duration // the instants pollSeal runs at
		ampRx  int64           // > 0: an unvalidated peer that sent this many bytes
		want   [][]int         // per poll and connection: segments per message
		sizes  bool            // the frames differ in size (checked, so the case tests what it says)
	}{
		{name: "a run splits at 64 segments", mss: 100, writes: []int{1 << 20}, conns: 1,
			polls: []time.Duration{0, time.Millisecond}, want: [][]int{{64}, {64, 15}}},
		{name: "a run splits at 65,000 bytes", mss: mss, writes: []int{1 << 20}, conns: 1,
			polls: []time.Duration{0}, want: [][]int{{45, 19}}},
		{name: "a 64 KiB block is two trains", mss: mss, writes: []int{64 << 10}, conns: 1,
			polls: []time.Duration{0}, want: [][]int{{45, 2}}, sizes: true},
		{name: "a short frame rides as its train's tail", mss: mss, writes: []int{10*mss + 100}, conns: 1,
			polls: []time.Duration{0}, want: [][]int{{11}}, sizes: true},
		{name: "a short frame closes its train", mss: mss, writes: []int{mss + 100, mss + 100}, conns: 1,
			polls: []time.Duration{0}, want: [][]int{{3, 1}}, sizes: true},
		{name: "a larger frame starts a new train", mss: mss, writes: []int{mss + 100, 3 * mss}, conns: 1,
			polls: []time.Duration{0}, want: [][]int{{3, 2}}, sizes: true},
		{name: "a lone frame", mss: mss, writes: []int{100}, conns: 1,
			polls: []time.Duration{0}, want: [][]int{{1}}},
		// 3 × 991 bytes admits two full frames and the short tail, and
		// withholds the eight full frames between them.
		{name: "the amplification cap leaves no gap", mss: mss, writes: []int{10*mss + 100}, conns: 1,
			polls: []time.Duration{0}, ampRx: 991, want: [][]int{{3}}, sizes: true},
		{name: "three connections in one round keep poll order", mss: mss, writes: []int{20 * mss}, conns: 3,
			polls: []time.Duration{0}, want: [][]int{{20}, {20}, {20}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &fakeWriter{}
			sh := trainShard(t, w)
			var conns []*Conn
			var twins []*qtp.Conn
			for i := 0; i < tc.conns; i++ {
				a, b := directSender(tc.mss, len(tc.writes)), directSender(tc.mss, len(tc.writes))
				for s, n := range tc.writes {
					id := uint64(0)
					if s > 0 {
						var err error
						if id, err = a.OpenStream(packet.StreamReliableOrdered, 0); err != nil {
							t.Fatal(err)
						}
						if _, err := b.OpenStream(packet.StreamReliableOrdered, 0); err != nil {
							t.Fatal(err)
						}
					}
					a.WriteStream(id, make([]byte, n))
					b.WriteStream(id, make([]byte, n))
				}
				c := trainConn(sh, 7100+uint16(i), a)
				if tc.ampRx > 0 {
					c.validated.Store(false)
					c.ampRx.Store(tc.ampRx)
				}
				conns = append(conns, c)
				twins = append(twins, b)
			}

			var wantSegs, trains, trainSegs uint64
			seen := 0 // writer batches already checked
			for p, now := range tc.polls {
				// One round: every connection polled in turn, one flush.
				refs := make([][][]byte, len(conns))
				for i, c := range conns {
					var ampTx int64
					for {
						f, ok := twins[i].PollFrameAppend(now, nil)
						if !ok {
							break
						}
						if tc.ampRx > 0 {
							if ampTx+int64(len(f)) > 3*tc.ampRx {
								continue
							}
							ampTx += int64(len(f))
						}
						refs[i] = append(refs[i], f)
					}
					if tc.sizes && allSameSize(refs[i]) {
						t.Fatalf("poll %d: the twin's %d frames are all one size; the case tests nothing", p, len(refs[i]))
					}
					c.mu.Lock()
					produced := sh.pollSeal(c, now)
					c.mu.Unlock()
					if produced != (len(refs[i]) > 0) {
						t.Fatalf("poll %d: pollSeal produced = %v with %d frames due", p, produced, len(refs[i]))
					}
				}
				sh.tx.flushPending()

				batches := w.snapshot()
				var msgs []ioMsg
				for _, b := range batches[seen:] {
					msgs = append(msgs, b...)
				}
				seen = len(batches)
				for i, c := range conns {
					var got [][]byte
					var cut []int
					for k, m := range msgs {
						if m.addr != c.peer {
							continue
						}
						if k > 0 && msgs[k-1].addr.Port() > m.addr.Port() {
							t.Fatalf("poll %d: a message for %v after one for %v, which was polled later", p, m.addr, msgs[k-1].addr)
						}
						if m.n > gsoMaxTrainBytes {
							t.Errorf("poll %d: a %d-byte train, above %d", p, m.n, gsoMaxTrainBytes)
						}
						segs := segments(m)
						for _, s := range segs[:len(segs)-1] {
							if len(s) != m.segSize {
								t.Errorf("poll %d: a %d-byte segment inside a train of %d", p, len(s), m.segSize)
							}
						}
						got = append(got, segs...)
						cut = append(cut, len(segs))
						wantSegs += uint64(len(segs))
						if len(segs) > 1 {
							trains++
							trainSegs += uint64(len(segs))
						}
					}
					ref := refs[i]
					if len(got) != len(ref) {
						t.Fatalf("poll %d, %v: %d datagrams on the wire, want the twin's %d", p, c.peer, len(got), len(ref))
					}
					for k := range ref {
						if !bytes.Equal(got[k], ref[k]) {
							t.Fatalf("poll %d, %v: datagram %d is not the twin's frame %d (%d bytes, want %d)",
								p, c.peer, k, k, len(got[k]), len(ref[k]))
						}
					}
					if want := tc.want[p*tc.conns+i]; !slices.Equal(cut, want) {
						t.Fatalf("poll %d, %v: segments per message %v, want %v", p, c.peer, cut, want)
					}
				}
			}
			if got := sh.tx.datagramsOut.Load(); got != wantSegs {
				t.Errorf("datagramsOut = %d, want %d", got, wantSegs)
			}
			if got, want := sh.tx.batches.Load(), uint64(len(tc.polls)); got != want {
				t.Errorf("%d send calls for %d rounds, want one a round", got, want)
			}
			if got := sh.tx.gsoTrains.Load(); got != trains {
				t.Errorf("gsoTrains = %d, want %d", got, trains)
			}
			if got := sh.tx.gsoSegs.Load(); got != trainSegs {
				t.Errorf("gsoSegs = %d, want %d", got, trainSegs)
			}
		})
	}
}

func allSameSize(fs [][]byte) bool {
	for _, f := range fs {
		if len(f) != len(fs[0]) {
			return false
		}
	}
	return true
}

// TestPollSealSealedTrainsOpen seals a burst in place, frame after frame
// in one buffer, and opens every segment of every train at the peer:
// each must authenticate on its own and the stream must arrive whole.
func TestPollSealSealedTrainsOpen(t *testing.T) {
	cli := qtp.NewConn(qtp.Config{Initiator: true, Profile: core.QTPAF(1e9), ConnID: 7, Encrypt: true})
	srv := qtp.NewConn(qtp.Config{Constraints: core.Permissive(1e9), LocalID: 9, Encrypt: true})
	handshake(t, cli, srv)

	w := &fakeWriter{}
	sh := trainShard(t, w)
	c := trainConn(sh, 7200, cli)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	cli.Write(data)
	now := 10 * time.Millisecond
	c.mu.Lock()
	sh.pollSeal(c, now)
	c.mu.Unlock()
	sh.tx.flushPending()

	var got []byte
	trains := 0
	for _, b := range w.snapshot() {
		for _, m := range b {
			segs := segments(m)
			if len(segs) > 1 {
				trains++
			}
			for _, s := range segs {
				frame, _, err := srv.CryptoSession().Open(s)
				if err != nil {
					t.Fatalf("a %d-byte segment does not open: %v", len(s), err)
				}
				if err := srv.HandleFrame(now, frame); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for {
		p, ok := srv.ReadStream(0)
		if !ok {
			break
		}
		got = append(got, p...)
		bufpool.PutChunk(p)
	}
	if trains == 0 {
		t.Fatal("no train: the burst left one frame a message")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("the peer read %d of %d bytes, or other bytes", len(got), len(data))
	}
}

// handshake runs an encrypted handshake between two sans-IO
// connections until the initiator has its 1-RTT keys.
func handshake(t *testing.T, cli, srv *qtp.Conn) {
	t.Helper()
	cli.Start(0)
	for round := 0; round < 8; round++ {
		moved := false
		for _, dir := range [][2]*qtp.Conn{{cli, srv}, {srv, cli}} {
			for {
				f, ok := dir[0].PollFrameAppend(0, nil)
				if !ok {
					break
				}
				moved = true
				if !packet.Cleartext(packet.Type(f[0] & 0x0f)) {
					sealed, err := dir[0].CryptoSession().SealAppend(nil, dir[0].RemoteID(), f)
					if err != nil {
						t.Fatal(err)
					}
					if f, _, err = dir[1].CryptoSession().Open(sealed); err != nil {
						t.Fatal(err)
					}
				}
				if err := dir[1].HandleFrame(0, f); err != nil {
					t.Fatal(err)
				}
			}
		}
		if cli.State() == qtp.StateEstablished && cli.CryptoSession() != nil && !moved {
			return
		}
	}
	if cli.State() != qtp.StateEstablished || cli.CryptoSession() == nil {
		t.Fatalf("handshake did not establish sealed keys: state %v", cli.State())
	}
}

// pairLine is one direction of a fixed-delay wire whose datagrams live
// in buffers made once, a ring in send order, which is arrival order.
// As the sender's writer it splits each train into its datagrams,
// allocating nothing.
type pairLine struct {
	now   *time.Duration
	at    [512]time.Duration
	frame [512][]byte
	head  int
	n     int
}

const pairOneWay = 50 * time.Microsecond

// push queues a copy of b to arrive pairOneWay after the clock.
func (l *pairLine) push(b []byte) {
	if l.n == len(l.frame) {
		panic("pair line full")
	}
	i := (l.head + l.n) % len(l.frame)
	if l.frame[i] == nil {
		l.frame[i] = make([]byte, 0, 2048)
	}
	l.frame[i] = append(l.frame[i][:0], b...)
	l.at[i] = *l.now + pairOneWay
	l.n++
}

// deliver hands c every datagram due by the clock.
func (l *pairLine) deliver(c *qtp.Conn) {
	for l.n > 0 && l.at[l.head] <= *l.now {
		_ = c.HandleFrame(*l.now, l.frame[l.head])
		l.head = (l.head + 1) % len(l.frame)
		l.n--
	}
}

func (l *pairLine) writeBatch(ms []ioMsg) (int, error) {
	for _, m := range ms {
		seg := m.n
		if m.segSize > 0 {
			seg = m.segSize
		}
		for off := 0; off < m.n; off += seg {
			l.push(m.buf[off:min(off+seg, m.n)])
		}
	}
	return len(ms), nil
}

// TestPollSealAllocFree holds pollSeal and flushPending to no heap
// allocation once warm: a sender on a fake writer moves 64 KiB blocks
// (47 frames each, the bulk workloads' shape) to a sans-IO receiver in
// virtual time, and only the two calls are counted.
func TestPollSealAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// One P, as testing.AllocsPerRun runs: pooled buffers put on one P's
	// queue and taken from another's grow the queues, which allocates.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var now time.Duration
	fwd, rev := &pairLine{now: &now}, &pairLine{now: &now}
	sh := trainShard(t, fwd)
	prof := core.QTPAF(1e9).Normalize()
	snd := qtp.NewConn(qtp.Config{Initiator: true, Profile: prof, ConnID: 1})
	rcv := qtp.NewConn(qtp.Config{ConnID: 1})
	snd.StartDirect(0, prof, 2*pairOneWay)
	rcv.StartDirect(0, prof, 0)
	c := trainConn(sh, 7300, snd)

	ackBuf := make([]byte, 0, 2048)
	var ms runtime.MemStats
	var allocs, polls uint64
	block := make([]byte, 64<<10)
	run := func(count bool) {
		snd.Write(block)
		for snd.BacklogLen() > 0 || fwd.n > 0 || rev.n > 0 {
			next, ok := snd.NextWake(now)
			for _, l := range []*pairLine{fwd, rev} {
				if l.n > 0 && (!ok || l.at[l.head] < next) {
					next, ok = l.at[l.head], true
				}
			}
			if !ok {
				t.Fatal("pair idle with data queued")
			}
			now = max(now, next)
			fwd.deliver(rcv)
			for {
				p, ok := rcv.ReadStream(0)
				if !ok {
					break
				}
				bufpool.PutChunk(p)
			}
			rev.deliver(snd)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			c.mu.Lock()
			sh.pollSeal(c, now)
			c.mu.Unlock()
			sh.tx.flushPending()
			runtime.ReadMemStats(&ms)
			if count {
				allocs += ms.Mallocs - before
				polls++
			}
			for {
				f, ok := rcv.PollFrameAppend(now, ackBuf[:0])
				if !ok {
					break
				}
				rev.push(f)
			}
		}
	}
	for i := 0; i < 200; i++ {
		run(false) // past slow start, every buffer grown to its size
	}
	trains0, segs0 := sh.tx.gsoTrains.Load(), sh.tx.gsoSegs.Load()
	const blocks = 50
	for i := 0; i < blocks; i++ {
		run(true)
	}
	trains := sh.tx.gsoTrains.Load() - trains0
	t.Logf("%d blocks: %d trains carrying %d datagrams in %d polls", blocks, trains, sh.tx.gsoSegs.Load()-segs0, polls)
	if trains < blocks {
		t.Fatalf("%d trains for %d blocks: the burst is not leaving in trains", trains, blocks)
	}
	if allocs != 0 {
		t.Errorf("%d allocations in pollSeal and flushPending over %d blocks (%d trains)", allocs, blocks, trains)
	}
}
