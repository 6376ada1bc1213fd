package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
)

// fuzzInstance is the small instance the fuzzers serve: 4 users, 3
// items in 2 classes, horizon 3, every (user, item, step) a candidate.
func fuzzInstance() *model.Instance {
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
	return in
}

// restoreSeedCorpus builds a valid snapshot to seed the fuzzer with:
// an engine with applied feedback, snapshotted after Close so the
// capture is synchronous and the bytes are representative.
func restoreSeedCorpus(f testing.TB) []byte {
	f.Helper()
	e, err := NewEngine(fuzzInstance(), Config{})
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

// fuzzRecordLen is the bytes one fuzzed WAL record decodes from: a kind
// byte (mapped onto the five record types), then user, item and step as
// i32, an adopted byte, stock as i64 and the price factor's bits as u64.
const fuzzRecordLen = 1 + 4 + 4 + 4 + 1 + 8 + 8

// maxFuzzRecords caps the records one input appends.
const maxFuzzRecords = 8

// decodeFuzzRecords splits data into at most maxFuzzRecords records.
// Revision reuses the stock field.
func decodeFuzzRecords(data []byte) []store.Record {
	le := binary.LittleEndian
	var recs []store.Record
	for ; len(data) >= fuzzRecordLen && len(recs) < maxFuzzRecords; data = data[fuzzRecordLen:] {
		recs = append(recs, store.Record{
			Type:     store.RecordType(1 + data[0]%5),
			User:     int32(le.Uint32(data[1:])),
			Item:     int32(le.Uint32(data[5:])),
			T:        int32(le.Uint32(data[9:])),
			Adopted:  data[13]&1 == 1,
			Stock:    int64(le.Uint64(data[14:])),
			Revision: int64(le.Uint64(data[14:])),
			Factor:   math.Float64frombits(le.Uint64(data[22:])),
		})
	}
	return recs
}

// encodeFuzzRecords is decodeFuzzRecords' inverse, for seeds.
func encodeFuzzRecords(recs ...store.Record) []byte {
	le := binary.LittleEndian
	var b []byte
	for _, r := range recs {
		b = append(b, byte(r.Type-1))
		b = le.AppendUint32(b, uint32(r.User))
		b = le.AppendUint32(b, uint32(r.Item))
		b = le.AppendUint32(b, uint32(r.T))
		if r.Adopted {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = le.AppendUint64(b, uint64(r.Stock+r.Revision))
		b = le.AppendUint64(b, math.Float64bits(r.Factor))
	}
	return b
}

// FuzzReplayRecords: arbitrary records appended to a durable engine's
// WAL must either make recovery refuse the log or recover an engine
// whose state live traffic could have produced — finite positive
// prices, no negative stock, a clock inside the horizon — and whose
// snapshot restores.
func FuzzReplayRecords(f *testing.F) {
	valid := []store.Record{
		{Type: store.RecEvent, User: 1, Item: 0, T: 1, Adopted: true},
		{Type: store.RecSetStock, Item: 1, Stock: 5},
		{Type: store.RecAdvance, T: 2},
		{Type: store.RecScalePrice, Item: 2, T: 2, Factor: 0.5},
		{Type: store.RecPlanSwap, Revision: 7},
	}
	for _, rec := range valid {
		f.Add(encodeFuzzRecords(rec))
	}
	f.Add(encodeFuzzRecords(valid...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		cfg := Config{Shards: 2, Durability: &Durability{Dir: dir, Sync: store.SyncNone}}
		e, err := Open(fuzzInstance(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		st, err := store.Open(dir, store.Options{SyncPolicy: store.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range decodeFuzzRecords(data) {
			if _, err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(nil, cfg)
		if err != nil {
			return // refusal is the expected failure mode
		}
		defer r.Close()
		in := r.Instance()
		for i := 0; i < in.NumItems(); i++ {
			for ts := 1; ts <= in.T; ts++ {
				if p := in.Price(model.ItemID(i), model.TimeStep(ts)); !(p > 0) || math.IsInf(p, 0) {
					t.Fatalf("recovered price of item %d at step %d is %v", i, ts, p)
				}
			}
			if n, _ := r.Stock(model.ItemID(i)); n < 0 {
				t.Fatalf("recovered stock of item %d is %d", i, n)
			}
		}
		if now := r.Now(); now < 1 || int(now) > in.T {
			t.Fatalf("recovered clock %d outside horizon [1,%d]", now, in.T)
		}
		var buf bytes.Buffer
		if err := r.Snapshot(&buf); err != nil {
			t.Fatalf("recovered engine cannot snapshot: %v", err)
		}
		re, err := Restore(&buf, Config{})
		if err != nil {
			t.Fatalf("recovered engine's snapshot does not restore: %v", err)
		}
		re.Close()
	})
}
