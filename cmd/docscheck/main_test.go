package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDeadLinks runs the gate's two halves — targets, then resolve —
// over a temp tree, one link per row. A fragment is stripped before the
// existence check, so an anchor that names no heading in a file that
// exists is not a dead link (the package comment's "out of scope"); the
// row is here so that changing it is a decision.
func TestDeadLinks(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README.md", "docs/WIRE.md"} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("# Only heading\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	from := filepath.Join(dir, "README.md")

	for _, tc := range []struct {
		name    string
		doc     string
		checked int // targets the document yields
		dead    int // of which resolve refuses
	}{
		{"good link", "see [wire](docs/WIRE.md)", 1, 0},
		{"good link to a directory, with a title", `[docs](docs "the docs")`, 1, 0},
		{"good reference-style link", "[wire]: docs/WIRE.md", 1, 0},
		{"dead relative link", "see [gone](docs/GONE.md)", 1, 1},
		{"dead reference-style link", "[gone]: ../GONE.md", 1, 1},
		{"dead anchor in a live file", "[x](docs/WIRE.md#no-such-heading)", 1, 0},
		{"anchor in a dead file", "[x](docs/GONE.md#only-heading)", 1, 1},
		{"same-page anchor and external links are skipped",
			"[a](#nowhere) [b](https://example.invalid/x.md) [c](mailto:a@b)", 0, 0},
		{"one good, one dead", "[a](docs/WIRE.md) and [b](WIRE.md)", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := targets(tc.doc)
			if len(ts) != tc.checked {
				t.Fatalf("targets(%q) = %q, want %d of them", tc.doc, ts, tc.checked)
			}
			dead := 0
			for _, target := range ts {
				if resolve(from, target) != nil {
					dead++
				}
			}
			if dead != tc.dead {
				t.Errorf("%d dead among %q, want %d", dead, ts, tc.dead)
			}
		})
	}
}
