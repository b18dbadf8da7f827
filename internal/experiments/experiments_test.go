package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

// TestGoldenExhibits diffs every rendered exhibit against the table
// committed under testdata/: a change that moves a number in a paper
// exhibit shows up as a reviewed diff of the golden file (regenerate
// with go test ./internal/experiments -run TestGoldenExhibits -update),
// not only as a shape assertion that still happens to hold.
func TestGoldenExhibits(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var got bytes.Buffer
			r.Run(quickCfg()).Render(&got)
			path := filepath.Join("testdata", r.ID+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s moved:\n--- got\n%s--- want (%s)\n%s", r.ID, got.Bytes(), path, want)
			}
		})
	}
}

// parse reads a numeric cell, tolerating % suffixes and 'x' markers.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestAllRegistered(t *testing.T) {
	rs := All()
	if len(rs) != 13 {
		t.Fatalf("registry has %d entries, want 13", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}, Notes: "n"}
	tb.AddRow("1", "2")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"X — demo", "a", "bb", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// The headline claim: QTPAF achieves its reservation, TCP does not.
func TestE1ShapeHolds(t *testing.T) {
	tb := RunE1QoSTargetSweep(quickCfg())
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	// At the largest target, QTPAF must beat TCP's achieved/g clearly.
	last := tb.Rows[len(tb.Rows)-1]
	qRatio := parse(t, last[2])
	tRatio := parse(t, last[4])
	if qRatio < 0.85 {
		t.Fatalf("QTPAF/g = %v at max target, want >= 0.85", qRatio)
	}
	if tRatio > 0.8*qRatio {
		t.Fatalf("TCP/g = %v does not show the AF failure (QTPAF %v)", tRatio, qRatio)
	}
}

func TestE4ShapeHolds(t *testing.T) {
	tb := RunE4ReceiverCost(quickCfg())
	// Rows 0/1: the TFRC-specific receiver machinery disappears.
	if classic := parse(t, tb.Rows[0][1]); classic == 0 {
		t.Fatal("classic receiver shows no TFRC work")
	}
	if light := parse(t, tb.Rows[0][2]); light != 0 {
		t.Fatalf("QTPlight receiver still does TFRC work: %v", light)
	}
	if lState := parse(t, tb.Rows[1][2]); lState != 0 {
		t.Fatalf("QTPlight receiver holds TFRC state: %v", lState)
	}
	// Rows 4/5: the sender absorbed the work instead.
	if sndOps := parse(t, tb.Rows[4][2]); sndOps == 0 {
		t.Fatal("sender estimator shows no work")
	}
}

func TestE5ShapeHolds(t *testing.T) {
	tb := RunE5LossEstimationParity(quickCfg())
	if len(tb.Rows) < 3 {
		t.Fatal("too few samples")
	}
	// Late samples (converged) must agree within 30%.
	last := tb.Rows[len(tb.Rows)-1]
	diff := parse(t, last[3])
	if diff > 30 {
		t.Fatalf("sender/receiver p diverge by %v%% at the end", diff)
	}
}

func TestE6ShapeHolds(t *testing.T) {
	tb := RunE6SelfishReceiver(quickCfg())
	last := tb.Rows[len(tb.Rows)-1] // largest lie
	classicGain := parse(t, last[2])
	lightGain := parse(t, last[4])
	if classicGain < 1.3 {
		t.Fatalf("classic TFRC lie gain %v, expected exploitable", classicGain)
	}
	if lightGain > 1.05 || lightGain < 0.95 {
		t.Fatalf("QTPlight lie gain %v, expected ~1.0 (immune)", lightGain)
	}
}

func TestE7ShapeHolds(t *testing.T) {
	tb := RunE7Smoothness(quickCfg())
	row := tb.Rows[0]
	tfrcCoV := parse(t, row[2])
	tcpCoV := parse(t, row[4])
	if tfrcCoV >= tcpCoV {
		t.Fatalf("TFRC CoV %v not smoother than TCP %v", tfrcCoV, tcpCoV)
	}
}

func TestE8ShapeHolds(t *testing.T) {
	tb := RunE8ReliabilityModes(quickCfg())
	none := parse(t, tb.Rows[0][1])
	partial := parse(t, tb.Rows[1][1])
	full := parse(t, tb.Rows[2][1])
	if full < 0.999 {
		t.Fatalf("full reliability delivered %v, want 1.0", full)
	}
	if !(none <= partial+0.02 && partial <= full+1e-9) {
		t.Fatalf("delivery ratios not ordered: none=%v partial=%v full=%v", none, partial, full)
	}
	if none > 0.995 {
		t.Fatalf("unreliable mode delivered %v on a 3%% lossy path — loss not exercised", none)
	}
}

func TestE9ShapeHolds(t *testing.T) {
	tb := RunE9LossyLink(quickCfg())
	// Under hard burst loss QTP must reach at least goodput parity with
	// SACK TCP while delivering much more smoothly.
	last := tb.Rows[len(tb.Rows)-1]
	ratio := parse(t, last[5])
	// Quick mode runs only 7.5 s, so QTP's slow start weighs heavily;
	// the full-length run (E9's note) reads well above parity.
	if ratio < 0.75 {
		t.Fatalf("QTP/TCP = %v under burst loss, want >= 0.75", ratio)
	}
	qCoV := parse(t, last[2])
	tCoV := parse(t, last[4])
	if qCoV >= tCoV {
		t.Fatalf("QTP CoV %v not smoother than TCP %v under burst loss", qCoV, tCoV)
	}
}

func TestE10ShapeHolds(t *testing.T) {
	tb := RunE10Friendliness(quickCfg())
	row := tb.Rows[0]
	ratio := parse(t, row[3])
	if ratio < 0.35 || ratio > 3.0 {
		t.Fatalf("TFRC/TCP share ratio %v, outside the friendliness band", ratio)
	}
}

func TestA1ShapeHolds(t *testing.T) {
	tb := RunA1GTFRCvsTFRC(quickCfg())
	row := tb.Rows[0]
	with := parse(t, row[1])
	without := parse(t, row[2])
	if with < 0.9 {
		t.Fatalf("gTFRC/g = %v, guarantee not held", with)
	}
	if without > with-0.03 {
		t.Fatalf("clamp did not help: gTFRC %v vs plain %v", with, without)
	}
}

// A3's premise: more SACK blocks per acknowledgment tell the sender more
// about a burst, so it retransmits less of what already arrived.
func TestA3ShapeHolds(t *testing.T) {
	tb := RunA3SACKBlocks(quickCfg())
	one := parse(t, tb.Rows[0][2])
	four := parse(t, tb.Rows[1][2])
	if four >= one {
		t.Fatalf("4 SACK blocks retransmitted %v frames, 1 block %v: more blocks must retransmit fewer", four, one)
	}
}

// The remaining experiments are exercised for successful generation;
// their shapes are scenario-dependent, each exhibit's Notes say what it
// shows, and TestGoldenExhibits pins their quick tables in testdata.
func TestRemainingExperimentsRun(t *testing.T) {
	for _, r := range All() {
		switch r.ID {
		case "E2", "E3", "A2":
			tb := r.Run(quickCfg())
			if len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := RunE6SelfishReceiver(Config{Seed: 5, Quick: true})
	b := RunE6SelfishReceiver(Config{Seed: 5, Quick: true})
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row count differs")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d col %d: %q vs %q", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}
