// Package experiments regenerates the paper's evaluation: every table
// and figure (E1–E10, A1–A3) is one Run* function here, its quick-mode
// output pinned in testdata/<ID>.golden, and cmd/qtpbench prints them
// all. The paper itself is a position paper without numbered exhibits,
// so the experiment set reconstructs the measured claims its §2-§4
// make; each exhibit's Notes name the claim it measures.
//
// All experiments are deterministic: the same seed reproduces the same
// table to the digit.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one rendered experiment result (a paper table or the data
// series behind a figure).
type Table struct {
	ID      string // e.g. "E1"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Config controls experiment scale. Quick mode shortens runs so the
// whole suite finishes in seconds (used by tests and benchmarks); full
// mode is what cmd/qtpbench runs by default.
type Config struct {
	Seed  int64
	Quick bool
}

// dur scales a full-length duration down in quick mode.
func (c Config) dur(full time.Duration) time.Duration {
	if c.Quick {
		return full / 8
	}
	return full
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) *Table
}

// All returns every experiment and ablation in presentation order.
func All() []Runner {
	return []Runner{
		{"E1", "QoS target sweep: QTPAF vs TCP in the AF class", RunE1QoSTargetSweep},
		{"E2", "Throughput over time at g=6 Mb/s: QTPAF vs TCP", RunE2Timeseries},
		{"E3", "RTT sensitivity of the QoS guarantee", RunE3RTTSweep},
		{"E4", "QTPlight receiver cost vs classic TFRC receiver", RunE4ReceiverCost},
		{"E5", "Sender-side vs receiver-side loss estimation parity", RunE5LossEstimationParity},
		{"E6", "Selfish receiver attack: classic TFRC vs QTPlight", RunE6SelfishReceiver},
		{"E7", "Throughput smoothness: TFRC vs TCP", RunE7Smoothness},
		{"E8", "Negotiated reliability modes under loss", RunE8ReliabilityModes},
		{"E9", "Lossy (wireless-like) links: QTP vs TCP goodput", RunE9LossyLink},
		{"E10", "TCP-friendliness: TFRC and TCP sharing a bottleneck", RunE10Friendliness},
		{"A1", "Ablation: gTFRC clamp vs plain TFRC in the AF class", RunA1GTFRCvsTFRC},
		{"A2", "Ablation: WALI loss-history depth", RunA2WALIDepth},
		{"A3", "Ablation: SACK blocks per acknowledgment", RunA3SACKBlocks},
	}
}

// fRate formats a rate in kB/s with 1 decimal.
func fRate(bytesPerSec float64) string {
	return fmt.Sprintf("%.1f", bytesPerSec/1000)
}

// fMbps formats a byte rate as Mb/s.
func fMbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f", bytesPerSec*8/1e6)
}

// fRatio formats a dimensionless ratio.
func fRatio(x float64) string { return fmt.Sprintf("%.3f", x) }

// fPct formats a fraction as a percentage.
func fPct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
