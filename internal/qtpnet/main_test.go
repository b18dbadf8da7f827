package qtpnet

import (
	"flag"
	"os"
	"testing"
)

// TestMain gives the test binary — and nothing else — two switches that
// move what a zero EndpointConfig resolves to, so the whole suite can be
// re-run on a lower rung of the data-path ladder or in cleartext:
//
//	go test ./internal/qtpnet -args -datapath=mmsg
//	go test ./internal/qtpnet -args -datapath=portable
//	go test ./internal/qtpnet -args -cleartext
//
// A test that pins a field explicitly keeps what it pinned.
func TestMain(m *testing.M) {
	flag.Var(&zeroConfig.dataPath, "datapath", "data-path ceiling for endpoints that leave EndpointConfig.DataPath at zero: auto | mmsg | portable")
	flag.BoolVar(&zeroConfig.cleartext, "cleartext", false, "run every endpoint with DisableEncryption")
	flag.Parse()
	os.Exit(m.Run())
}

// raceEnabled reports a -race build (race_test.go sets it), whose
// instrumentation allocates where the plain build does not.
var raceEnabled bool

// skipIfCleartext skips tests that assert encrypted-mode behavior when
// the suite runs under -cleartext.
func skipIfCleartext(t *testing.T) {
	t.Helper()
	if zeroConfig.cleartext {
		t.Skip("-cleartext: every endpoint runs unsealed")
	}
}

// TestOldEnvOverridesIgnored is the regression test for the deleted
// QTPNET_NO* environment overrides: nothing in a process's environment
// may move an endpoint down the ladder, off its shards or into
// cleartext. (It failed while the overrides existed.)
func TestOldEnvOverridesIgnored(t *testing.T) {
	probe := func() Capabilities {
		e, err := NewEndpoint("127.0.0.1:0", EndpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		return e.Capabilities()
	}
	want := probe()
	for _, name := range []string{"QTPNET_NOBATCH", "QTPNET_NOGSO", "QTPNET_NOREUSEPORT", "QTPNET_NOENCRYPT"} {
		t.Setenv(name, "1")
	}
	if got := probe(); got != want {
		t.Errorf("data path with the old variables set: %+v, want %+v", got, want)
	}
	if reusePortSupported() {
		se, err := NewEndpoint("127.0.0.1:0", EndpointConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if n := se.NumShards(); n != 2 {
			t.Errorf("NumShards = %d with the old variables set, want 2", n)
		}
		se.Close()
	}
	if !zeroConfig.cleartext {
		assertSealedWire(t)
	}
}
