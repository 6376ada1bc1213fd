package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/model"
)

// restoreSeedCorpus builds a valid snapshot to seed the fuzzer with:
// an engine with applied feedback, snapshotted after Close so the
// capture is synchronous and the bytes are representative.
func restoreSeedCorpus(f *testing.F) []byte {
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
				// (3, 2, 3) stays out: a seed names it as an in-range
				// triple that is not a candidate.
				if u == 3 && i == 2 && t == 3 {
					continue
				}
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
	// Targeted corruptions of the valid snapshot: truncations, version
	// skew, and field-level tampering reach deeper than random bytes.
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":99`), 1))
	f.Add(bytes.Replace(valid, []byte(`"now":`), []byte(`"now":-`), 1))
	f.Add(bytes.Replace(valid, []byte(`"stock":[`), []byte(`"stock":[-9,`), 1))
	f.Add(bytes.Replace(valid, []byte(`"triples":[`), []byte(`"triples":[[3,2,3],`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1,"now":1,"stock":[],"instance":{},"strategy":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Restore(bytes.NewReader(data), Config{})
		if err != nil {
			return // rejection is the expected failure mode
		}
		// Whatever was accepted must behave like an engine: serve a
		// lookup, report stats, snapshot, and shut down cleanly.
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
		if !json.Valid(buf.Bytes()) {
			t.Fatal("re-snapshot produced invalid JSON")
		}
	})
}
