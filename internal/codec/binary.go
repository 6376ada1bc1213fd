package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/model"
)

// The binary instance format is the little-endian column image beside
// the JSON one, for programs that write and read their own images
// (serve snapshots). It carries no version of its own: the enclosing
// image versions it. Layout:
//
//	u32 users, u32 horizon T, u32 display K, u32 items
//	items × i32 class
//	items × f64 beta
//	items × i64 capacity
//	items × T × f64 price, item-major (index t-1)
//	users × u32 candidate count
//	n × i32 item, then n × i32 t, then n × f64 q (n = sum of the
//	counts; CandID order, so each user's run ascends by (item, t))

// AppendInstanceBinary appends in's binary column image to b. in must
// be finished (FinishCandidates), so each user's candidates are in
// CandID order; DecodeInstanceBinary rejects any other order.
func AppendInstanceBinary(b []byte, in *model.Instance) []byte {
	le := binary.LittleEndian
	for _, v := range []int{in.NumUsers, in.T, in.K, in.NumItems()} {
		b = le.AppendUint32(b, uint32(v))
	}
	for _, it := range in.Items {
		b = le.AppendUint32(b, uint32(it.Class))
	}
	for _, it := range in.Items {
		b = le.AppendUint64(b, math.Float64bits(it.Beta))
	}
	for _, it := range in.Items {
		b = le.AppendUint64(b, uint64(it.Capacity))
	}
	for i := range in.Items {
		for t := 1; t <= in.T; t++ {
			b = le.AppendUint64(b, math.Float64bits(in.Price(model.ItemID(i), model.TimeStep(t))))
		}
	}
	for u := 0; u < in.NumUsers; u++ {
		b = le.AppendUint32(b, uint32(len(in.UserCandidates(model.UserID(u)))))
	}
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range in.UserCandidates(model.UserID(u)) {
			b = le.AppendUint32(b, uint32(c.I))
		}
	}
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range in.UserCandidates(model.UserID(u)) {
			b = le.AppendUint32(b, uint32(c.T))
		}
	}
	for u := 0; u < in.NumUsers; u++ {
		for _, c := range in.UserCandidates(model.UserID(u)) {
			b = le.AppendUint64(b, math.Float64bits(c.Q))
		}
	}
	return b
}

// DecodeInstanceBinary reads the instance image at the front of b and
// returns the validated, finished instance and the bytes after it. It
// makes every check DecodeInstance makes — shape bounds, price count,
// user range, Validate — and checks each count against the bytes that
// remain before allocating for it, so a hostile image cannot request
// more memory than its own length implies. Candidates must ascend by
// (item, t) within each user and carry q in (0, 1]: the image is the
// instance's CandID space, so nothing may be dropped, clamped or
// reordered on the way in.
func DecodeInstanceBinary(b []byte) (*model.Instance, []byte, error) {
	c := NewCursor(b)
	users, horizon, display, items := c.U32(), c.U32(), c.U32(), c.U32()
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	if err := checkShape(int(users), int(horizon), int(display), int(items)); err != nil {
		return nil, nil, err
	}
	// Item columns, the full price matrix and the per-user counts must
	// all be present before NewInstance allocates for them.
	if need := uint64(items)*(4+8+8+8*uint64(horizon)) + 4*uint64(users); need > uint64(c.Len()) {
		return nil, nil, fmt.Errorf("codec: %d items over %d steps and %d users need %d bytes, %d remain",
			items, horizon, users, need, c.Len())
	}
	in := model.NewInstance(int(users), int(items), int(horizon), int(display))
	for i := range in.Items {
		in.Items[i].Class = model.ClassID(c.I32())
	}
	for i := range in.Items {
		in.Items[i].Beta = c.F64()
	}
	for i := range in.Items {
		in.Items[i].Capacity = int(c.I64())
	}
	for i := range in.Items {
		for t := 1; t <= int(horizon); t++ {
			in.SetPrice(model.ItemID(i), model.TimeStep(t), c.F64())
		}
	}
	counts := make([]uint32, users)
	var n uint64
	for u := range counts {
		counts[u] = c.U32()
		n += uint64(counts[u])
	}
	if n > uint64(c.Len())/16 {
		return nil, nil, fmt.Errorf("codec: %d candidates need %d bytes, %d remain", n, 16*n, c.Len())
	}
	itemCol, timeCol, qCol := c.Take(4*int(n)), c.Take(4*int(n)), c.Take(8*int(n))
	for u, cnt := range counts {
		prevI, prevT := int32(-1), int32(0)
		for k := uint32(0); k < cnt; k++ {
			i, t, q := itemCol.I32(), timeCol.I32(), qCol.F64()
			if i < prevI || (i == prevI && t <= prevT) {
				return nil, nil, fmt.Errorf("codec: user %d candidate (%d, %d) out of (item, t) order", u, i, t)
			}
			if !(q > 0 && q <= 1) {
				return nil, nil, fmt.Errorf("codec: user %d candidate (%d, %d) has q=%v outside (0,1]", u, i, t, q)
			}
			prevI, prevT = i, t
			in.AddCandidate(model.UserID(u), model.ItemID(i), model.TimeStep(t), q)
		}
	}
	in.FinishCandidates()
	if err := in.Validate(); err != nil {
		return nil, nil, fmt.Errorf("codec: decoded instance invalid: %w", err)
	}
	return in, c.Rest(), nil
}

// Cursor reads little-endian fixed-width values off the front of a byte
// slice. The first read past the end sets a sticky error (Err) and
// every read from then on returns zero, so a decoder checks once per
// section instead of once per value.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Err reports the first short read, if any.
func (c *Cursor) Err() error { return c.err }

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) }

// Rest returns the unread bytes.
func (c *Cursor) Rest() []byte { return c.b }

// next consumes n bytes, or sets the sticky error and returns nil.
func (c *Cursor) next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.err = fmt.Errorf("codec: image truncated: %d bytes wanted, %d remain", n, len(c.b))
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// Take consumes n bytes and returns a cursor over them; a short image
// leaves both cursors failed.
func (c *Cursor) Take(n int) *Cursor {
	p := c.next(n)
	if c.err != nil {
		return &Cursor{err: c.err}
	}
	return &Cursor{b: p}
}

// U32 reads a uint32.
func (c *Cursor) U32() uint32 {
	if p := c.next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// I32 reads an int32.
func (c *Cursor) I32() int32 { return int32(c.U32()) }

// U64 reads a uint64.
func (c *Cursor) U64() uint64 {
	if p := c.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// I64 reads an int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// F64 reads a float64 from its IEEE 754 bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Count reads a uint32 element count and checks that that many
// elements of width bytes each fit in what remains; a count that does
// not fit sets the sticky error and reads as 0, so the caller may
// allocate for the count it gets back.
func (c *Cursor) Count(width int, what string) int {
	n := c.U32()
	if c.err != nil {
		return 0
	}
	if uint64(n)*uint64(width) > uint64(len(c.b)) {
		c.err = fmt.Errorf("codec: %s count %d needs %d bytes, %d remain", what, n, uint64(n)*uint64(width), len(c.b))
		return 0
	}
	return int(n)
}
