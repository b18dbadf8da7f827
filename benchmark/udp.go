package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/qtpnet"
)

// udpSpec describes a workload that crosses real UDP sockets on the
// host loopback: one server endpoint, one client endpoint, one
// connection, all inside this process.
type udpSpec struct {
	profile  core.Profile
	clear    bool          // DisableEncryption on both endpoints
	opSize   int           // bytes per operation
	streams  int           // 1: legacy single-stream path; 2: stream 0 + one OpenStream
	interval time.Duration // 0: closed loop; else one operation is due every interval
	inFlight int           // closed loop: operations written and not yet verified, at most; 0: no limit
}

const (
	// serverBudget is the QoS budget the server grants; every profile
	// the benchmark proposes fits under it. The closed loops ask for all
	// of it: a gTFRC floor of 1 GB/s is several times what the box
	// carries, so the rate controller never paces them and the endpoint
	// is the bottleneck. (At 100 MB/s the floor itself capped bulk_clear.)
	serverBudget = 1e9
	// bulkInFlight is how many 64 KiB blocks a bulk writer keeps between
	// its Write and the reader's verdict: one, the closed loop of a caller
	// that waits for its block to arrive. Written back to back instead,
	// the blocks fill the connection's 1 MiB send backlog and the stack's
	// cost per KiB grows with what is queued (bulk_clear, one run each in
	// one disturbed hour, as the clocks read it: 6.1 us at one block in
	// flight, 7.7 at two, 9.3 at four, 15 at six, 22 with the backlog
	// full). From two blocks on the sender also retransmits, on
	// a loopback that loses nothing: 0 to 0.3% of its frames at two, 0.1
	// to 5% from three on, a few times or many from one connection to the
	// next, and the cost follows that draw (ten runs at two blocks spread
	// 12 to 15%, at one 5 to 6%). The traced run records the back-to-back
	// writer beside the gated one.
	bulkInFlight = 1
	// readQueue lifts the server's per-connection delivery queue from
	// its default of 64 chunks. The default drops the oldest chunk when
	// the reader is descheduled for a few milliseconds (ROADMAP item
	// 3), which would make the benchmark measure its own scheduling
	// luck; qtpnet.rx_drops is reported and must read 0.
	readQueue = 4096
	// waitLimit bounds every wait on the program under test.
	waitLimit = 15 * time.Second
	readPoll  = 100 * time.Millisecond
)

// byteStream is what the harness needs from a *qtpnet.Conn (stream 0)
// or a *qtpnet.Stream.
type byteStream interface {
	Write(p []byte) (int, error)
	Read(timeout time.Duration) ([]byte, bool)
	Release(p []byte)
	CloseSend()
}

// udpSession is one established connection with its streams open and
// the first operation of every stream already delivered and verified.
type udpSession struct {
	spec     udpSpec
	pat      pattern
	srv, cli *qtpnet.Endpoint
	sc, cc   *qtpnet.Conn
	tx, rx   []byteStream
	vers     []*verifier
	nextOp   uint64 // index of the next operation to write
}

// openSession binds both endpoints, completes the handshake, opens the
// streams and carries one operation over each. uring selects the data
// path rung: false pins recvmmsg/sendmmsg+GSO/GRO, which every gated
// workload uses; true leaves the ladder free to pick io_uring.
func openSession(spec udpSpec, pat pattern, uring bool) (*udpSession, error) {
	cfg := qtpnet.EndpointConfig{DisableUring: !uring, DisableEncryption: spec.clear}
	srvCfg := cfg
	srvCfg.AcceptInbound = true
	srvCfg.Constraints = core.Permissive(serverBudget)
	srvCfg.ReadQueue = readQueue
	srv, err := qtpnet.NewEndpoint("127.0.0.1:0", srvCfg)
	if err != nil {
		return nil, fmt.Errorf("server endpoint: %w", err)
	}
	cli, err := qtpnet.NewEndpoint("127.0.0.1:0", cfg)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("client endpoint: %w", err)
	}
	s := &udpSession{spec: spec, pat: pat, srv: srv, cli: cli}
	if !uring && (srv.UringEnabled() || cli.UringEnabled()) {
		s.close()
		return nil, errors.New("io_uring is in use although DisableUring is set")
	}
	if err := s.connect(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *udpSession) connect() error {
	type accepted struct {
		c   *qtpnet.Conn
		err error
	}
	ch := make(chan accepted, 1) // one send, never blocks the acceptor
	go func() {
		c, err := s.srv.Accept()
		ch <- accepted{c, err}
	}()
	cc, err := s.cli.Dial(s.srv.Addr().String(), s.spec.profile, 5*time.Second)
	if err != nil {
		s.srv.Close() // unblocks Accept
		<-ch
		return fmt.Errorf("dial: %w", err)
	}
	s.cc = cc
	select {
	case a := <-ch:
		if a.err != nil {
			return fmt.Errorf("accept: %w", a.err)
		}
		s.sc = a.c
	case <-time.After(waitLimit):
		s.srv.Close()
		<-ch
		return errors.New("accept: handshake completed on the client only")
	}
	s.tx = []byteStream{s.cc}
	s.rx = []byteStream{s.sc}
	for i := 1; i < s.spec.streams; i++ {
		st, err := s.cc.OpenStream(qtpnet.StreamReliableOrdered, 0)
		if err != nil {
			return fmt.Errorf("open stream: %w", err)
		}
		s.tx = append(s.tx, st)
	}
	n := uint64(s.spec.streams)
	buf := make([]byte, s.spec.opSize)
	for i := range s.tx {
		s.pat.fill(buf, s.nextOp, nowNS())
		if _, err := s.tx[i].Write(buf); err != nil {
			return fmt.Errorf("first write on stream %d: %w", i, err)
		}
		s.nextOp++
		if i > 0 {
			// The server learns of a stream from its first frame.
			st, ok := s.sc.AcceptStream(5 * time.Second)
			if !ok {
				return fmt.Errorf("stream %d was not announced to the server", i)
			}
			s.rx = append(s.rx, st)
		}
		v := newVerifier(s.pat, s.spec.opSize, uint64(i), n)
		s.vers = append(s.vers, v)
		deadline := time.Now().Add(5 * time.Second)
		for len(v.recs) == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("first operation on stream %d was not delivered", i)
			}
			if p, ok := s.rx[i].Read(readPoll); ok {
				v.feed(p, nowNS())
				s.rx[i].Release(p)
			}
		}
	}
	return nil
}

// close tears the session down; safe on a partly opened one, and twice.
func (s *udpSession) close() {
	s.closeConn()
	s.cli.Close()
	s.srv.Close()
}

// closeConn closes the session's connection and leaves the endpoints up.
func (s *udpSession) closeConn() {
	if s.cc != nil {
		s.cc.Close()
	}
	if s.sc != nil {
		s.sc.Close()
	}
	s.cc, s.sc = nil, nil
}

// traffic is the running load on a session: one writer goroutine, one
// reader goroutine per stream.
type traffic struct {
	s        *udpSession
	stop     atomic.Bool
	credits  chan struct{} // closed loop with a limit: one token per operation the writer may start
	drainBy  atomic.Int64  // nowNS after which readers give up; 0 while running
	wg       sync.WaitGroup
	writeErr error
	written  uint64  // operations handed to Write, set when the writer exits
	due      []int64 // open loop: when each operation was due ...
	late     []int64 // ... and how late the generator started it
	writerTr *tracer
	readerTr []*tracer
}

func (s *udpSession) start(traced bool) *traffic {
	t := &traffic{s: s, readerTr: make([]*tracer, len(s.rx))}
	if n := s.spec.inFlight; n > 0 {
		t.credits = make(chan struct{}, n)
		for i := 0; i < n; i++ {
			t.credits <- struct{}{}
		}
	}
	if traced {
		t.writerTr = newTracer(legSpans)
		for i := range t.readerTr {
			t.readerTr[i] = newTracer(legSpans)
		}
	}
	t.wg.Add(1 + len(s.rx))
	go func() {
		defer t.wg.Done()
		t.write()
	}()
	for i := range s.rx {
		i := i // go.mod says go 1.21: loop variables are shared
		go func() {
			defer t.wg.Done()
			t.read(i)
		}()
	}
	return t
}

// write is the load generator. Closed loop: the next operation is
// written as soon as Write has returned and, where the workload limits
// what is in flight, a reader has handed back a credit; the transport
// and the receiving application pace it. Open loop: operation k is due
// at start+k*interval whatever happened to the ones before it, carries
// its due time as its stamp, and the generator's own lateness is
// recorded.
func (t *traffic) write() {
	s := t.s
	buf := make([]byte, s.spec.opSize)
	op := s.nextOp
	first := op
	start := nowNS()
	for !t.stop.Load() {
		if t.credits != nil {
			if <-t.credits; t.stop.Load() { // finish adds a credit to wake the writer
				break
			}
		}
		stamp := nowNS()
		if s.spec.interval > 0 {
			due := start + int64(op-first+1)*int64(s.spec.interval)
			sleepUntilPrecise(due)
			t.due = append(t.due, due)
			t.late = append(t.late, max(nowNS()-due, 0))
			stamp = due
		}
		s.pat.fill(buf, op, stamp)
		t.writerTr.begin(spWrite)
		_, err := s.tx[int(op)%len(s.tx)].Write(buf)
		t.writerTr.end()
		if err != nil {
			t.writeErr = err
			break
		}
		op++
	}
	t.written = op
	for _, tx := range s.tx {
		tx.CloseSend()
	}
}

// read drains and verifies one stream until the connection has
// delivered everything through FIN, died, or the drain limit passed.
func (t *traffic) read(i int) {
	s, v, tr := t.s, t.s.vers[i], t.readerTr[i]
	for !s.sc.Finished() {
		tr.begin(spRead)
		p, ok := s.rx[i].Read(readPoll)
		tr.end()
		if ok {
			done := len(v.recs)
			v.feed(p, nowNS())
			s.rx[i].Release(p)
			for ; t.credits != nil && done < len(v.recs); done++ {
				select {
				case t.credits <- struct{}{}:
				default: // the writer stopped short of using them all
				}
			}
			continue
		}
		select {
		case <-s.sc.Done():
			return
		default:
		}
		if d := t.drainBy.Load(); d != 0 && nowNS() > d {
			return
		}
	}
}

// finish stops the generator, lets the transport deliver what was
// written, joins every harness goroutine and waits (bounded) for the
// protocol teardown.
func (t *traffic) finish() {
	t.drainBy.Store(nowNS() + int64(waitLimit))
	t.stop.Store(true)
	select {
	case t.credits <- struct{}{}: // wakes a writer that waits for one (never ready when credits is nil)
	default:
	}
	t.wg.Wait()
	select {
	case <-t.s.cc.Done():
	case <-time.After(waitLimit):
	}
}

// maxLateMS is the generator's worst lateness among operations due
// inside [t0, t1), in milliseconds (0 for a closed loop).
func (t *traffic) maxLateMS(t0, t1 int64) float64 {
	var worst int64
	for i, due := range t.due {
		if due >= t0 && due < t1 && t.late[i] > worst {
			worst = t.late[i]
		}
	}
	return float64(worst) / 1e6
}

// sleepUntilPrecise blocks until nowNS reaches t, to within the
// kernel's timer slack (tens of microseconds). time.Sleep cannot pace
// an open loop below a millisecond: an idle Go process sleeps in
// epoll_wait, whose timeout is whole milliseconds, so a 250 us wait
// overshoots by half a millisecond on average and the "paced" messages
// leave in bursts of four.
func sleepUntilPrecise(t int64) {
	for d := t - nowNS(); d > 0; d = t - nowNS() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR (a runtime signal): go round again
	}
}

// sleepUntil blocks until nowNS reaches t.
func sleepUntil(t int64) {
	if d := t - nowNS(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// legSpans is the room a leg's tracers start with: msg_pingpong's
// writer makes some 65 000 Write calls a second.
const legSpans = 1 << 18

// udpWindow runs warm-up and one measured window on live traffic, and
// adds both endpoints' and both connections' counter deltas to ep, cn.
func udpWindow(t *traffic, warmup, length time.Duration, ep *endpointCounters, cn *connCounters) *window {
	time.Sleep(warmup)
	srv0, cli0 := t.s.srv.Stats(), t.s.cli.Stats()
	snd0, rcv0 := t.s.cc.Stats(), t.s.sc.Stats()
	start := nowNS()
	w := measureWindow(start, int(length/sliceLen), func(slice int) int64 {
		sleepUntil(start + int64(sliceLen)*int64(slice))
		return nowNS()
	})
	ep.add(srv0, cli0, t.s.srv.Stats(), t.s.cli.Stats())
	cn.add(snd0, rcv0, t.s.cc.Stats(), t.s.sc.Stats())
	return w
}

// dialMS times n sequential connection set-ups on the warm endpoints:
// Dial, the server's Accept, then Close on both sides. After the first,
// the client holds a session ticket and resumes at 0-RTT.
func (s *udpSession) dialMS(n int) ([]float64, error) {
	s.closeConn()
	var out []float64
	for i := 0; i < n; i++ {
		t := nowNS()
		c, err := s.cli.Dial(s.srv.Addr().String(), s.spec.profile, 5*time.Second)
		if err != nil {
			return out, fmt.Errorf("dial %d: %w", i, err)
		}
		a, err := s.srv.Accept()
		if err != nil {
			c.Close()
			return out, fmt.Errorf("accept %d: %w", i, err)
		}
		c.Close()
		a.Close()
		out = append(out, float64(nowNS()-t)/1e6)
	}
	return out, nil
}
