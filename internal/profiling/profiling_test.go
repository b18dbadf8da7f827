package profiling

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// sink keeps the profiled work's allocations live for the heap profile.
var sink [][]byte

// TestStartWritesProfiles: both file profiles come out as what `go tool
// pprof` reads, gzip-framed protocol buffers.
func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop := Start(cpu, mem, "")
	for i := 0; i < 1000; i++ {
		sink = append(sink, bytes.Repeat([]byte{byte(i)}, 1024))
	}
	stop()
	for _, name := range []string{cpu, mem} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not gzip-framed pprof output", filepath.Base(name), len(b))
		}
	}
}

// TestStartNothingRequested: with every profile off, stop writes no file.
func TestStartNothingRequested(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	Start("", "", "")()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("stop with no profile requested left %d entries (%v)", len(ents), err)
	}
}
