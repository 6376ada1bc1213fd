package serve

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// restoreSeedCorpus builds a valid snapshot to seed the fuzzer with:
// an engine with applied feedback, snapshotted after Close so the
// capture is synchronous and the bytes are representative.
func restoreSeedCorpus(f testing.TB) []byte {
	f.Helper()
	in := model.NewInstance(4, 3, 3, 1)
	for i := 0; i < 3; i++ {
		in.SetItem(model.ItemID(i), model.ClassID(i%2), 0.5, 2)
		for t := 1; t <= 3; t++ {
			in.SetPrice(model.ItemID(i), model.TimeStep(t), float64(10*(i+1)+t))
		}
	}
	for u := 0; u < 4; u++ {
		for i := 0; i < 3; i++ {
			for t := 1; t <= 3; t++ {
				in.AddCandidate(model.UserID(u), model.ItemID(i), model.TimeStep(t), 0.4)
			}
		}
	}
	in.FinishCandidates()
	e, err := NewEngine(in, Config{})
	if err != nil {
		f.Fatal(err)
	}
	_ = e.Feed(Event{User: 0, Item: 0, T: 1, Adopted: true})
	_ = e.Feed(Event{User: 1, Item: 2, T: 1, Adopted: false})
	e.Flush()
	e.Close()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestore: arbitrary (and corrupted) snapshot bytes must either
// restore to a consistent, servable engine or return an error — never
// panic, never hand back an engine that panics on first use.
func FuzzRestore(f *testing.F) {
	valid := restoreSeedCorpus(f)
	f.Add(valid)
	// Targeted corruptions of the valid image reach deeper than random
	// bytes: most are resealed, so the section parsers see them.
	for _, c := range snapCorruptions() {
		f.Add(c.corrupt(f, valid))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRestoreImage(t, data)
		if len(data) >= 4 {
			// Recompute the trailer too, so mutations get past the
			// checksum and into the section parsers.
			fuzzRestoreImage(t, reseal(data[:len(data)-4]))
		}
	})
}

// fuzzRestoreImage restores data and, when that succeeds, checks the
// engine serves, reports a sane shape and re-snapshots to an image that
// re-decodes.
func fuzzRestoreImage(t *testing.T, data []byte) {
	e, err := Restore(bytes.NewReader(data), Config{})
	if err != nil {
		return // rejection is the expected failure mode
	}
	defer e.Close()
	if _, err := e.Recommend(0, e.Now()); err != nil {
		t.Logf("restored engine rejected lookup: %v", err)
	}
	st := e.Stats()
	if st.Users <= 0 || st.Horizon <= 0 {
		t.Fatalf("restored engine has nonsensical shape: %+v", st)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatalf("restored engine cannot re-snapshot: %v", err)
	}
	if _, err := parseSnapshot(buf.Bytes()); err != nil {
		t.Fatalf("re-snapshot does not re-decode: %v", err)
	}
}
