package packet

import (
	"bytes"
	"testing"
)

// testToken stands in for a minted source-address token: the codec
// treats tokens as opaque, and a real one (qcrypto.Minter, empty body)
// is 33 bytes — key ID, mint time, nonce, tag.
func testToken() []byte {
	tok := make([]byte, 33)
	for i := range tok {
		tok[i] = byte(i * 7)
	}
	return tok
}

func TestRetryRoundTrip(t *testing.T) {
	in := Retry{Token: testToken(), RetryAfterMS: 750}
	enc, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Retry
	if err := out.Parse(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Token, in.Token) || out.RetryAfterMS != in.RetryAfterMS {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}

	// Token-less retries must not encode or decode.
	var empty Retry
	if _, err := empty.AppendTo(nil); err == nil {
		t.Fatal("encoded a retry without a token")
	}
	if err := out.Parse([]byte{0}); err == nil {
		t.Fatal("parsed a retry without a token")
	}
}

// FuzzRetryParse checks that no input crashes the Retry TLV walker and
// that everything that parses re-encodes and re-parses identically.
func FuzzRetryParse(f *testing.F) {
	r := Retry{Token: testToken(), RetryAfterMS: 500}
	enc, _ := r.AppendTo(nil)
	f.Add(enc)
	f.Add([]byte{1, 1, 1, 0xaa})
	f.Add([]byte{2, 99, 0, 1, 3, 'a', 'b', 'c'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Retry
		if err := r.Parse(data); err != nil {
			return
		}
		if len(r.Token) == 0 {
			t.Fatal("retry parsed with no token")
		}
		re, err := r.AppendTo(nil)
		if err != nil {
			t.Fatalf("re-encode of parsed retry failed: %v", err)
		}
		var r2 Retry
		if err := r2.Parse(re); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !bytes.Equal(r2.Token, r.Token) || r2.RetryAfterMS != r.RetryAfterMS {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", r, r2)
		}
	})
}
