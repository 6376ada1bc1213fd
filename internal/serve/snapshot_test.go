package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/model"
	"repro/internal/store"
)

// snapWire is the comparable form of a snapshot image: every section
// decoded, the instance as its column bytes and the plan as its
// triples.
type snapWire struct {
	Version              uint32
	Now, From            model.TimeStep
	Revision, Replans    int64
	Revenue              float64
	Adoptions, Exposures int64
	Stock                []int64
	Users                []model.UserFeedback
	Instance             []byte
	Plan                 []model.Triple
}

// decodeWire parses img into its comparable form.
func decodeWire(t testing.TB, img []byte) snapWire {
	t.Helper()
	st, err := parseSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	return snapWire{
		Version:   binary.LittleEndian.Uint32(img[len(snapMagic):]),
		Now:       st.now,
		From:      st.from,
		Revision:  st.revision,
		Replans:   st.replans,
		Revenue:   st.revenue,
		Adoptions: st.adoptions,
		Exposures: st.exposures,
		Stock:     st.stock,
		Users:     st.users,
		Instance:  codec.AppendInstanceBinary(nil, st.in),
		Plan:      st.plan.Triples(),
	}
}

// snapshotBytes snapshots eng.
func snapshotBytes(t testing.TB, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireOf snapshots eng and decodes the image, masking the fields that
// legitimately differ between a live engine and its recovered twin
// (plan revision and replan count — recovery replans once at boot).
func wireOf(t testing.TB, eng *Engine) snapWire {
	t.Helper()
	w := decodeWire(t, snapshotBytes(t, eng))
	w.Revision, w.Replans = 0, 0
	return w
}

// requireSameWire fails t naming every field where got and want differ.
func requireSameWire(t testing.TB, got, want snapWire, what string) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	var diff []string
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			diff = append(diff, gv.Type().Field(i).Name)
		}
	}
	if len(diff) > 0 {
		t.Fatalf("%s: snapshot fields differ: %s", what, strings.Join(diff, ", "))
	}
}

// snapScalarsLen is the size of the image's scalars section.
const snapScalarsLen = 4 + 8 + 8 + 4 + 8 + 8 + 8

// Section ends of a snapshot image, as indexes into snapBounds.
const (
	endHeader = iota
	endScalars
	endItems
	endCands
	endStock
	endPlan
	endFeedback // where the trailer starts
)

var sectionNames = []string{"header", "scalars", "item columns", "candidate columns", "stock", "plan", "feedback"}

// snapBounds returns the offsets at which img's sections end.
func snapBounds(t testing.TB, img []byte) []int {
	t.Helper()
	st, err := parseSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	in := st.in
	scalars := snapHeaderLen + snapScalarsLen
	cands := scalars + len(codec.AppendInstanceBinary(nil, in))
	stock := cands + 4 + 8*len(st.stock)
	plan := stock + 4 + 4*st.plan.Len()
	b := []int{snapHeaderLen, scalars, scalars + 16 + in.NumItems()*(4+8+8+8*in.T), cands, stock, plan, len(img) - 4}
	if plan > b[endFeedback] {
		t.Fatalf("section bounds %v overrun the %d-byte image", b, len(img))
	}
	return b
}

// reseal returns body followed by its CRC trailer: a well-checksummed
// image, so a corruption reaches the section parsers.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, store.Checksum(body))
}

// withPlanSection returns img with its plan section (count included)
// replaced by sec, resealed.
func withPlanSection(t testing.TB, img, sec []byte) []byte {
	t.Helper()
	b := snapBounds(t, img)
	body := append([]byte(nil), img[:b[endStock]]...)
	body = append(body, sec...)
	body = append(body, img[b[endPlan]:b[endFeedback]]...)
	return reseal(body)
}

// withFeedback returns img with its feedback section replaced by the
// given raw u32 words (the user count first), resealed.
func withFeedback(t testing.TB, img []byte, words ...uint32) []byte {
	t.Helper()
	body := append([]byte(nil), img[:snapBounds(t, img)[endPlan]]...)
	for _, w := range words {
		body = binary.LittleEndian.AppendUint32(body, w)
	}
	return reseal(body)
}

// withPlan returns img with its plan replaced by the given raw CandIDs.
func withPlan(t testing.TB, img []byte, ids ...uint32) []byte {
	t.Helper()
	sec := binary.LittleEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		sec = binary.LittleEndian.AppendUint32(sec, id)
	}
	return withPlanSection(t, img, sec)
}

// v1Image is the shape of a version 1 (JSON) snapshot.
const v1Image = `{"version":1,"now":1,"plan_revision":1,"plan_revenue":0,"stock":[1],"instance":{},"strategy":{}}`

// snapCorruption is one way to damage a valid snapshot image.
type snapCorruption struct {
	name    string
	want    string // in the rejection error
	corrupt func(t testing.TB, img []byte) []byte
}

// snapCorruptions lists the damage every v2 image reader must reject:
// a flipped byte, a cut trailer, truncation at every section boundary
// (resealed, so the section parsers see it), a v1 JSON image, a clock of
// 0, a plan CandID out of range, repeated or descending, a repeated
// feedback user or adopted class, a feedback user with no class, and
// counts larger than the file. Each corruption reads the sections of the
// image it is handed, which must plan at least two candidates.
func snapCorruptions() []snapCorruption {
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31-1)
	cs := []snapCorruption{
		{"flipped byte", "checksum", func(t testing.TB, img []byte) []byte {
			out := append([]byte(nil), img...)
			out[len(out)/2] ^= 0x40
			return out
		}},
		{"truncated trailer", "checksum", func(t testing.TB, img []byte) []byte { return img[:len(img)-2] }},
		{"no trailer", "checksum", func(t testing.TB, img []byte) []byte { return img[:len(img)-4] }},
		{"v1 JSON image", "version 1", func(testing.TB, []byte) []byte { return []byte(v1Image) }},
		{"clock 0", "snapshot clock 0", func(t testing.TB, img []byte) []byte {
			body := append([]byte(nil), img[:len(img)-4]...)
			binary.LittleEndian.PutUint32(body[snapHeaderLen:], 0)
			return reseal(body)
		}},
		{"CandID out of range", "out of range", func(t testing.TB, img []byte) []byte {
			_, n := planIDs(t, img)
			return withPlan(t, img, uint32(n))
		}},
		{"duplicate CandID", "not ascending", func(t testing.TB, img []byte) []byte {
			ids, _ := planIDs(t, img)
			return withPlan(t, img, ids[0], ids[0])
		}},
		{"descending CandIDs", "not ascending", func(t testing.TB, img []byte) []byte {
			ids, _ := planIDs(t, img)
			return withPlan(t, img, ids[1], ids[0])
		}},
		{"repeated feedback user", "out-of-order user", func(t testing.TB, img []byte) []byte {
			// Users 0 and 0, neither with adopted or exposed classes.
			return withFeedback(t, img, 2, 0, 0, 0, 0, 0, 0)
		}},
		{"repeated adopted class", "classes of feedback user 0 are not ascending", func(t testing.TB, img []byte) []byte {
			// User 0 adopted class 0 twice and has no exposures.
			return withFeedback(t, img, 1, 0, 2, 0, 0, 0)
		}},
		{"empty feedback user", "has no adopted or exposed class", func(t testing.TB, img []byte) []byte {
			// User 0 listed with neither an adopted nor an exposed class.
			return withFeedback(t, img, 1, 0, 0, 0)
		}},
		{"plan count beyond file", "plan count", func(t testing.TB, img []byte) []byte { return withPlanSection(t, img, huge) }},
		{"candidate count beyond file", "candidates need", func(t testing.TB, img []byte) []byte {
			body := append([]byte(nil), img[:len(img)-4]...)
			copy(body[snapBounds(t, img)[endItems]:], huge)
			return reseal(body)
		}},
		{"trailing byte", "bytes after", func(t testing.TB, img []byte) []byte {
			return reseal(append(append([]byte(nil), img[:len(img)-4]...), 0))
		}},
	}
	// The section that finds each cut short.
	short := []string{"scalars", "instance", "instance", "stock", "plan", "feedback"}
	for i := endHeader; i < endFeedback; i++ {
		cs = append(cs, snapCorruption{"cut after " + sectionNames[i], "snapshot " + short[i], func(t testing.TB, img []byte) []byte {
			return reseal(img[:snapBounds(t, img)[i]])
		}})
	}
	return cs
}

// planIDs returns the first two planned CandIDs of img and its
// candidate count.
func planIDs(t testing.TB, img []byte) ([]uint32, int) {
	t.Helper()
	st, err := parseSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	st.plan.Each(func(id model.CandID) bool {
		ids = append(ids, uint32(id))
		return len(ids) < 2
	})
	if len(ids) < 2 {
		t.Fatalf("plan corruptions need two planned candidates, the image plans %d", st.plan.Len())
	}
	return ids, st.in.NumCands()
}

// pinnedImageSHA256 is the SHA-256 of the image pinnedScript leaves
// behind, recorded while the engine still kept per-user feedback in maps.
// The image must not move when the in-memory form does: a change here is
// a change of the snapshot format (or of what the engine plans), which
// needs a SnapshotVersion bump or a stated reason.
const pinnedImageSHA256 = "2a461632b0a67cd68f1b8a7b3af51ebaa420b03a27944552de6655894149db5a"

// pinnedScript drives e through every kind of mutation the image
// records — adoptions, exposures past model.MaxExposuresPerClass on one
// (user, class), a stock override, a price rescale and a clock advance —
// with a flush after each, so every replan lands deterministically.
func pinnedScript(t *testing.T, e *Engine) {
	t.Helper()
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}
	for u := 0; u < 6; u++ {
		step(e.Feed(Event{User: model.UserID(u), Item: model.ItemID(u % 5), T: 1, Adopted: u%2 == 0}))
	}
	for k := 0; k < 70; k++ {
		step(e.Feed(Event{User: 7, Item: model.ItemID(1 + 4*(k%2)), T: model.TimeStep(1 + k%3)}))
	}
	step(e.Feed(Event{User: 9, Item: 3, T: 2}))
	step(e.Feed(Event{User: 9, Item: 2, T: 1, Adopted: true}))
	step(e.SetStock(4, 1))
	step(e.ScalePrice(2, 2, 1.25))
	step(e.SetNow(2))
	step(e.Feed(Event{User: 11, Item: 6, T: 2, Adopted: true}))
}

// TestSnapshotImagePinned holds the whole image of a scripted engine to
// a committed hash, so a refactor of how the engine holds its state
// cannot move the format while still round-tripping through itself.
func TestSnapshotImagePinned(t *testing.T) {
	e := newTestEngine(t, testInstance(t, 40, 8, 3, 2, 23), Config{ReplanEvery: 1000})
	pinnedScript(t, e)
	img := snapshotBytes(t, e)
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != pinnedImageSHA256 {
		t.Fatalf("snapshot image SHA-256 %s, want %s (%d bytes)", got, pinnedImageSHA256, len(img))
	}
}
