package core

import (
	"testing"
	"time"

	"repro/internal/gtfrc"
	"repro/internal/packet"
	"repro/internal/tfrc"
)

// Compile-time checks: both TFRC-family machines fill the
// RateController role directly.
var (
	_ RateController = (*tfrc.Sender)(nil)
	_ RateController = (*gtfrc.Controller)(nil)
)

func TestPredefinedProfilesValidate(t *testing.T) {
	profiles := map[string]Profile{
		"qtpaf":         QTPAF(1e6),
		"qtplight":      QTPLight(),
		"qtplight-rel":  QTPLightReliable(0),
		"qtplight-part": QTPLightReliable(200 * time.Millisecond),
		"classic":       ClassicTFRC(),
	}
	for name, p := range profiles {
		if err := p.Normalize().Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if QTPAF(1e6).Feedback != packet.FeedbackReceiverLoss ||
		QTPAF(1e6).Reliability != packet.ReliabilityFull {
		t.Error("QTPAF composition wrong")
	}
	if QTPLight().Feedback != packet.FeedbackSenderLoss ||
		QTPLight().Reliability != packet.ReliabilityNone {
		t.Error("QTPlight composition wrong")
	}
	if QTPLightReliable(time.Second).Reliability != packet.ReliabilityPartial {
		t.Error("QTPLightReliable(deadline) should be partial")
	}
	if QTPLightReliable(0).Reliability != packet.ReliabilityFull {
		t.Error("QTPLightReliable(0) should be full")
	}
}

// TestParseProfile checks each -profile name gives its constructor's
// composition, the same in every tool: qtplight is the unreliable one.
func TestParseProfile(t *testing.T) {
	want := map[string]Profile{
		"qtpaf":        QTPAF(1e6),
		"qtplight":     QTPLight(),
		"qtplight-rel": QTPLightReliable(0),
		"classic":      ClassicTFRC(),
	}
	for name, w := range want {
		if p, err := ParseProfile(name, 1e6); err != nil || p != w {
			t.Errorf("ParseProfile(%q) = %+v, %v; want %+v", name, p, err, w)
		}
	}
	if _, err := ParseProfile("qtplite", 0); err == nil {
		t.Error("an unknown name parsed")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{MSS: -1},
		{MSS: 70000},
		{MSS: 1400, Reliability: packet.ReliabilityPartial}, // no deadline
		{MSS: 1400, Deadline: time.Second},                  // deadline w/o partial
		{MSS: 1400, TargetRate: -5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	in := Profile{
		Reliability: packet.ReliabilityPartial,
		Deadline:    250 * time.Millisecond,
		Feedback:    packet.FeedbackSenderLoss,
		TargetRate:  750_000,
		MSS:         1200,
	}
	hs := in.Handshake()
	buf, err := hs.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out packet.Handshake
	if err := out.Parse(buf); err != nil {
		t.Fatal(err)
	}
	got := ProfileFromHandshake(out)
	if got.Reliability != in.Reliability || got.Deadline != in.Deadline ||
		got.Feedback != in.Feedback || got.TargetRate != in.TargetRate ||
		got.MSS != in.MSS {
		t.Fatalf("round trip:\n in=%v\nout=%v", in, got)
	}
}

func TestNegotiateCapsQoS(t *testing.T) {
	granted := Negotiate(Permissive(500_000), QTPAF(2_000_000))
	if granted.TargetRate != 500_000 {
		t.Fatalf("target rate = %v, want capped 500000", granted.TargetRate)
	}
	// Zero-budget server refuses QoS entirely.
	granted = Negotiate(Constraints{MaxReliability: packet.ReliabilityFull}, QTPAF(1e6))
	if granted.TargetRate != 0 {
		t.Fatalf("target rate = %v, want 0", granted.TargetRate)
	}
}

func TestNegotiateDegradesReliability(t *testing.T) {
	c := Constraints{MaxReliability: packet.ReliabilityNone, AllowSenderLoss: true}
	granted := Negotiate(c, QTPLightReliable(0))
	if granted.Reliability != packet.ReliabilityNone {
		t.Fatalf("reliability = %v, want none", granted.Reliability)
	}
	if granted.Deadline != 0 {
		t.Fatal("deadline must clear when partial is dropped")
	}
}

func TestNegotiateFeedbackFallback(t *testing.T) {
	c := Constraints{MaxReliability: packet.ReliabilityFull, AllowSenderLoss: false}
	granted := Negotiate(c, QTPLight())
	if granted.Feedback != packet.FeedbackReceiverLoss {
		t.Fatalf("feedback = %v, want receiver-loss fallback", granted.Feedback)
	}
}

func classicBBR() Profile {
	p := ClassicTFRC()
	p.Congestion = packet.CongestionBBR
	return p
}

// TestNormalizeBBRReadsAckVectorsOnly: BBR is fed ack vectors, so asking for
// it over classic receiver reports normalizes to sender-side feedback.
func TestNormalizeBBRReadsAckVectorsOnly(t *testing.T) {
	p := classicBBR().Normalize()
	if p.Congestion != packet.CongestionBBR || p.Feedback != packet.FeedbackSenderLoss {
		t.Fatalf("ClassicTFRC+BBR normalized to cc=%v feedback=%v, want bbr over sender-loss", p.Congestion, p.Feedback)
	}
}

// TestNegotiateBBRReadsAckVectorsOnly: a responder that insists on receiver
// reports cannot feed BBR, so it grants the TFRC family over them; one
// that allows both grants BBR over ack vectors.
func TestNegotiateBBRReadsAckVectorsOnly(t *testing.T) {
	got := Negotiate(Constraints{AllowBBR: true, AllowSenderLoss: false}, classicBBR())
	if got.Congestion != packet.CongestionTFRC || got.Feedback != packet.FeedbackReceiverLoss {
		t.Fatalf("receiver-loss-only responder granted cc=%v feedback=%v, want tfrc over receiver-loss", got.Congestion, got.Feedback)
	}
	got = Negotiate(Permissive(0), classicBBR())
	if got.Congestion != packet.CongestionBBR || got.Feedback != packet.FeedbackSenderLoss {
		t.Fatalf("Permissive granted cc=%v feedback=%v, want bbr over sender-loss", got.Congestion, got.Feedback)
	}
}

func TestNegotiateMSS(t *testing.T) {
	c := Permissive(0)
	c.MaxMSS = 500
	granted := Negotiate(c, QTPLight())
	if granted.MSS != 500 {
		t.Fatalf("mss = %d, want 500", granted.MSS)
	}
}

func TestNegotiateGrantsWithinConstraints(t *testing.T) {
	// A modest proposal passes through unchanged.
	p := QTPAF(100_000)
	granted := Negotiate(Permissive(1e6), p)
	if granted.TargetRate != p.TargetRate || granted.Reliability != p.Reliability {
		t.Fatalf("over-restricted: %v", granted)
	}
	if err := granted.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNegotiateResultAlwaysValid(t *testing.T) {
	cons := []Constraints{
		{},
		Permissive(0),
		Permissive(1e9),
		{MaxReliability: packet.ReliabilityPartial, AllowSenderLoss: true},
		// Streams and BBR allowed, reliability not.
		{MaxStreams: packet.MaxStreams, AllowBBR: true, AllowSenderLoss: true},
	}
	props := []Profile{
		QTPAF(1e6), QTPLight(), QTPLightReliable(time.Second),
		QTPLightReliable(0), ClassicTFRC(), {},
		// BBR with streams over full reliability, and BBR with a QoS
		// reservation it cannot keep.
		{Reliability: packet.ReliabilityFull, Congestion: packet.CongestionBBR, MaxStreams: 8},
		{Reliability: packet.ReliabilityFull, Congestion: packet.CongestionBBR, TargetRate: 1e6},
	}
	for i, c := range cons {
		for j, p := range props {
			got := Negotiate(c, p)
			if err := got.Validate(); err != nil {
				t.Errorf("cons %d prop %d: %v (%v)", i, j, err, got)
			}
			if n := got.Normalize(); n != got {
				t.Errorf("cons %d prop %d: %+v is not normalized (Normalize gives %+v)", i, j, got, n)
			}
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	p := Profile{}.Normalize()
	if p.MSS != DefaultMSS || p.WALIDepth != tfrc.DefaultWALIDepth {
		t.Fatalf("defaults: %+v", p)
	}
}

func TestProfileString(t *testing.T) {
	s := QTPAF(1e6).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
