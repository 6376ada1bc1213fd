package codec_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/dist"
	"repro/internal/testgen"
)

// FuzzDecodeInstance ensures arbitrary input never panics the decoder
// and that anything it accepts re-encodes losslessly.
func FuzzDecodeInstance(f *testing.F) {
	f.Add(`{"version":1,"users":1,"horizon":1,"display":1,` +
		`"items":[{"class":0,"beta":0.5,"capacity":1,"prices":[1.0]}],` +
		`"candidates":[{"user":0,"items":[{"item":0,"t":1,"q":0.5}]}]}`)
	f.Add(`{}`)
	f.Add(`not json at all`)
	f.Add(`{"version":1,"users":-3}`)
	f.Fuzz(func(t *testing.T, data string) {
		in, err := codec.DecodeInstance(strings.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Round-trip whatever was accepted.
		var buf bytes.Buffer
		if err := codec.EncodeInstance(&buf, in); err != nil {
			t.Fatalf("accepted instance failed to encode: %v", err)
		}
		again, err := codec.DecodeInstance(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.NumUsers != in.NumUsers || again.NumCandidates() != in.NumCandidates() {
			t.Fatal("round trip changed the instance")
		}
	})
}

// FuzzDecodeStrategy ensures the strategy decoder is panic-free.
func FuzzDecodeStrategy(f *testing.F) {
	f.Add(`{"version":1,"triples":[[0,1,2],[3,4,5]]}`)
	f.Add(`{"version":1,"triples":[]}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, data string) {
		s, err := codec.DecodeStrategy(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := codec.EncodeStrategy(&buf, s); err != nil {
			t.Fatalf("accepted strategy failed to encode: %v", err)
		}
		again, err := codec.DecodeStrategy(&buf)
		if err != nil || again.Len() != s.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzDecodeInstanceBinary ensures arbitrary bytes never panic the
// binary reader and that whatever it accepts re-encodes to exactly the
// bytes it consumed.
func FuzzDecodeInstanceBinary(f *testing.F) {
	in := testgen.Random(dist.NewRNG(4), testgen.Default())
	valid := codec.AppendInstanceBinary(nil, in)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, rest, err := codec.DecodeInstanceBinary(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if again := codec.AppendInstanceBinary(nil, in); !bytes.Equal(again, data[:len(data)-len(rest)]) {
			t.Fatal("accepted image does not re-encode to the bytes it consumed")
		}
	})
}
