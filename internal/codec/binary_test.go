package codec_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/testgen"
)

// TestInstanceBinaryRoundTrip: the binary image decodes to an instance
// whose JSON and binary encodings both equal the original's, leaves the
// bytes after it untouched, and keeps every CandID in place.
func TestInstanceBinaryRoundTrip(t *testing.T) {
	rng := dist.NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		in := testgen.Random(rng, testgen.Default())
		img := codec.AppendInstanceBinary(nil, in)
		got, rest, err := codec.DecodeInstanceBinary(append(img, "tail"...))
		if err != nil {
			t.Fatal(err)
		}
		if string(rest) != "tail" {
			t.Fatalf("rest = %q, want the bytes after the image", rest)
		}
		if again := codec.AppendInstanceBinary(nil, got); !bytes.Equal(again, img) {
			t.Fatal("binary re-encoding differs")
		}
		var a, b bytes.Buffer
		if err := codec.EncodeInstance(&a, in); err != nil {
			t.Fatal(err)
		}
		if err := codec.EncodeInstance(&b, got); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatal("JSON encodings of the original and the decoded instance differ")
		}
		if got.NumCands() != in.NumCands() {
			t.Fatalf("%d candidates, want %d", got.NumCands(), in.NumCands())
		}
		for id := model.CandID(0); int(id) < in.NumCands(); id++ {
			if got.CandAt(id) != in.CandAt(id) {
				t.Fatalf("CandID %d: %v, want %v", id, got.CandAt(id), in.CandAt(id))
			}
		}
	}
}

// oneCandImage is the image of a 1-user, 1-item, T=1 instance with one
// candidate (item 0, t 1, q): the smallest valid image, for tampering.
func oneCandImage(q float64) []byte {
	in := model.NewInstance(1, 1, 1, 1)
	in.SetItem(0, 0, 0.5, 1)
	in.SetPrice(0, 1, 1)
	in.AddCandidate(0, 0, 1, 0.5)
	in.FinishCandidates()
	img := codec.AppendInstanceBinary(nil, in)
	return binary.LittleEndian.AppendUint64(img[:len(img)-8], math.Float64bits(q))
}

func TestDecodeInstanceBinaryRejects(t *testing.T) {
	valid := oneCandImage(0.5)
	if _, _, err := codec.DecodeInstanceBinary(valid); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(valid); n++ {
		if _, _, err := codec.DecodeInstanceBinary(valid[:n]); err == nil {
			t.Fatalf("image cut to %d of %d bytes accepted", n, len(valid))
		}
	}
	le := binary.LittleEndian
	set32 := func(off int, v uint32) []byte {
		b := append([]byte(nil), valid...)
		le.PutUint32(b[off:], v)
		return b
	}
	for _, tc := range []struct {
		name, want string
		img        []byte
	}{
		{"zero users", "user count", set32(0, 0)},
		{"horizon too long", "horizon", set32(4, 1<<16+1)},
		{"zero display", "display", set32(8, 0)},
		{"item count beyond file", "need", set32(12, 1<<20)},
		{"user count beyond file", "need", set32(0, 1<<20)},
		// The one candidate count sits after the 16-byte shape and the
		// item row (4+8+8+8 bytes).
		{"candidate count beyond file", "candidates need", set32(16+28, 2)},
		{"q zero", "outside (0,1]", oneCandImage(0)},
		{"q above one", "outside (0,1]", oneCandImage(1.5)},
		{"q NaN", "outside (0,1]", oneCandImage(math.NaN())},
		{"beta above one", "invalid", func() []byte {
			b := append([]byte(nil), valid...)
			le.PutUint64(b[20:], math.Float64bits(1.5))
			return b
		}()},
		{"item out of range", "invalid", set32(16+28+4, 3)},
		{"t outside horizon", "invalid", set32(16+28+8, 2)},
	} {
		if _, _, err := codec.DecodeInstanceBinary(tc.img); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// Two candidates of one user out of (item, t) order.
	in := model.NewInstance(1, 2, 1, 1)
	in.SetItem(0, 0, 0.5, 1)
	in.SetItem(1, 0, 0.5, 1)
	in.AddCandidate(0, 0, 1, 0.5)
	in.AddCandidate(0, 1, 1, 0.5)
	in.FinishCandidates()
	img := codec.AppendInstanceBinary(nil, in)
	items := 16 + 2*28 + 4 // shape, item rows, one count: the item column
	le.PutUint32(img[items:], 1)
	le.PutUint32(img[items+4:], 0)
	if _, _, err := codec.DecodeInstanceBinary(img); err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("descending candidates: error %v, want one naming the order", err)
	}
}
