package main

// Harness-side tracing: spans around the calls the harness makes into
// the layers under test. Spans are kept in memory and summarised when
// the run ends; nothing inside the program is instrumented.

type spanName uint8

const (
	spWindow         spanName = iota // root: the measured window on one goroutine
	spWrite                          // Conn.Write / Stream.Write (real UDP), Conn.Write (sim)
	spRead                           // Conn.Read / Stream.Read (real UDP), Conn.ReadAny (sim)
	spSenderEvent                    // sim: one sender pump (timer or inbound ack)
	spReceiverEvent                  // sim: one receiver pump (inbound data)
	spSenderPoll                     // sim: sender PollFrameAppend
	spSenderHandle                   // sim: sender HandleFrame (acks)
	spSenderWake                     // sim: sender NextWake
	spReceiverPoll                   // sim: receiver PollFrameAppend
	spReceiverHandle                 // sim: receiver HandleFrame (data)
	spReceiverWake                   // sim: receiver NextWake
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"window", "write", "read", "sender_event", "receiver_event",
	"sender_poll", "sender_handle", "sender_wake",
	"receiver_poll", "receiver_handle", "receiver_wake",
}

type span struct {
	name       spanName
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // nowNS
}

// tracer records the spans of one goroutine. A nil *tracer is tracing
// switched off: begin and end return at once, so traced and untraced
// runs execute the same harness code.
type tracer struct {
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

// newTracer returns a tracer with room for capacity spans. The room is
// written to here, outside any window: on this kind of machine the page
// faults of memory touched for the first time cost more than the spans.
func newTracer(capacity int) *tracer {
	buf := make([]span, capacity)
	for i := range buf {
		buf[i].parent = -1
	}
	return &tracer{spans: buf[:0]}
}

func (t *tracer) begin(name spanName) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: name, parent: parent, start: nowNS()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = nowNS()
	t.open = t.open[:n]
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	count       int64
	total, self int64 // ns; self is total minus the time child spans cover
}

// totals summarises the completed spans that started inside [from, to).
func (t *tracer) totals(from, to int64) [numSpanNames]spanTotal {
	var out [numSpanNames]spanTotal
	if t == nil {
		return out
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.end == 0 || s.start < from || s.start >= to {
			continue
		}
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
		out[s.name].count++
		out[s.name].total += d
	}
	for i, s := range t.spans {
		if s.end != 0 && s.start >= from && s.start < to {
			out[s.name].self += self[i]
		}
	}
	return out
}
