package netsim

// Mark is the DiffServ drop-precedence colour assigned by an edge
// marker. Queues that are not colour-aware ignore it.
type Mark uint8

// Packet colours. In the two-colour srTCM model used by the AF class,
// in-profile traffic is green and excess traffic is red.
const (
	MarkDefault Mark = iota // unmarked / best-effort
	MarkGreen               // in-profile (low drop precedence)
	MarkRed                 // out-of-profile (high drop precedence)
)

func (m Mark) String() string {
	switch m {
	case MarkGreen:
		return "green"
	case MarkRed:
		return "red"
	default:
		return "default"
	}
}

// FlowID identifies a flow for classification and tracing.
type FlowID uint32

// Packet is the unit the simulator moves around. Size is the on-wire
// size used for transmission timing and queue accounting; Payload
// carries the protocol frame (encoded QTP bytes, a TCP segment struct,
// or nil for synthetic cross-traffic).
type Packet struct {
	Flow    FlowID
	Size    int
	Mark    Mark
	Payload any
}

// Handler consumes packets at the far end of a link.
type Handler interface {
	Recv(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// Recv implements Handler.
func (f HandlerFunc) Recv(p *Packet) { f(p) }

// Indirect is a Handler whose target can be set after construction,
// breaking the chicken-and-egg between links (which need a destination)
// and endpoints (which need their links). Packets arriving before the
// target is set are dropped.
type Indirect struct {
	Target Handler
}

// Recv implements Handler.
func (i *Indirect) Recv(p *Packet) {
	if i.Target != nil {
		i.Target.Recv(p)
	}
}

// Sink is a Handler that counts and discards everything it receives.
type Sink struct {
	Packets int
	Bytes   int
}

// Recv implements Handler.
func (s *Sink) Recv(p *Packet) {
	s.Packets++
	s.Bytes += p.Size
}
