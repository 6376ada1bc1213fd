// Package codec serializes REVMAX instances and strategies to a
// versioned JSON format, so generated datasets and planned strategies
// can be persisted, shared, and replayed by the CLI tools. Sparse
// candidate lists are stored per user to keep files proportional to the
// true input size. Beside it, a little-endian binary column image of an
// instance (AppendInstanceBinary, DecodeInstanceBinary) is what the
// serving engine's snapshots embed.
package codec

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/model"
)

// FormatVersion is bumped on breaking changes to the wire format.
const FormatVersion = 1

// instanceWire is the JSON shape of an instance.
type instanceWire struct {
	Version int            `json:"version"`
	Users   int            `json:"users"`
	T       int            `json:"horizon"`
	K       int            `json:"display"`
	Items   []itemWire     `json:"items"`
	Cands   []candListWire `json:"candidates"`
}

type itemWire struct {
	Class    int32     `json:"class"`
	Beta     float64   `json:"beta"`
	Capacity int       `json:"capacity"`
	Prices   []float64 `json:"prices"` // length T, index t-1
}

type candListWire struct {
	User  int32      `json:"user"`
	Items []candWire `json:"items"`
}

type candWire struct {
	Item int32   `json:"item"`
	Time int32   `json:"t"`
	Q    float64 `json:"q"`
}

// EncodeInstance writes in to w as JSON.
func EncodeInstance(w io.Writer, in *model.Instance) error {
	wire := instanceWire{
		Version: FormatVersion,
		Users:   in.NumUsers,
		T:       in.T,
		K:       in.K,
	}
	for i := 0; i < in.NumItems(); i++ {
		id := model.ItemID(i)
		iw := itemWire{
			Class:    int32(in.Class(id)),
			Beta:     in.Beta(id),
			Capacity: in.Capacity(id),
			Prices:   make([]float64, in.T),
		}
		for t := 1; t <= in.T; t++ {
			iw.Prices[t-1] = in.Price(id, model.TimeStep(t))
		}
		wire.Items = append(wire.Items, iw)
	}
	for u := 0; u < in.NumUsers; u++ {
		cands := in.UserCandidates(model.UserID(u))
		if len(cands) == 0 {
			continue
		}
		cl := candListWire{User: int32(u)}
		for _, c := range cands {
			cl.Items = append(cl.Items, candWire{Item: int32(c.I), Time: int32(c.T), Q: c.Q})
		}
		wire.Cands = append(wire.Cands, cl)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(wire)
}

// DecodeInstance reads an instance from r and validates it.
func DecodeInstance(r io.Reader) (*model.Instance, error) {
	var wire instanceWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if wire.Version != FormatVersion {
		return nil, fmt.Errorf("codec: unsupported format version %d (want %d)", wire.Version, FormatVersion)
	}
	if err := checkShape(wire.Users, wire.T, wire.K, len(wire.Items)); err != nil {
		return nil, err
	}
	in := model.NewInstance(wire.Users, len(wire.Items), wire.T, wire.K)
	for i, iw := range wire.Items {
		if len(iw.Prices) != wire.T {
			return nil, fmt.Errorf("codec: item %d has %d prices, want %d", i, len(iw.Prices), wire.T)
		}
		in.SetItem(model.ItemID(i), model.ClassID(iw.Class), iw.Beta, iw.Capacity)
		for t, p := range iw.Prices {
			in.SetPrice(model.ItemID(i), model.TimeStep(t+1), p)
		}
	}
	for _, cl := range wire.Cands {
		if cl.User < 0 || int(cl.User) >= wire.Users {
			return nil, fmt.Errorf("codec: candidate list for unknown user %d", cl.User)
		}
		for _, c := range cl.Items {
			in.AddCandidate(model.UserID(cl.User), model.ItemID(c.Item), model.TimeStep(c.Time), c.Q)
		}
	}
	in.FinishCandidates()
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("codec: decoded instance invalid: %w", err)
	}
	// A repeated (user, item, t) has no one q, and no one CandID: the
	// engine's binary snapshots refuse it, so a served instance must not
	// hold one. Candidates are sorted now, so repeats are adjacent.
	for u := 0; u < in.NumUsers; u++ {
		cs := in.UserCandidates(model.UserID(u))
		for k := 1; k < len(cs); k++ {
			if cs[k].Triple == cs[k-1].Triple {
				return nil, fmt.Errorf("codec: candidate %v listed twice", cs[k].Triple)
			}
		}
	}
	return in, nil
}

// checkShape bounds an instance's shape. Both decoders call it before
// allocating: hostile input could otherwise panic make() or request
// absurd memory.
func checkShape(users, horizon, display, items int) error {
	const maxDim = 1 << 28
	switch {
	case users <= 0 || users > maxDim:
		return fmt.Errorf("codec: user count %d out of range", users)
	case horizon <= 0 || horizon > 1<<16:
		return fmt.Errorf("codec: horizon %d out of range", horizon)
	case display <= 0 || display > 1<<16:
		return fmt.Errorf("codec: display limit %d out of range", display)
	case items <= 0 || items > maxDim:
		return fmt.Errorf("codec: item count %d out of range", items)
	}
	return nil
}

// strategyWire is the JSON shape of a strategy.
type strategyWire struct {
	Version int        `json:"version"`
	Triples [][3]int32 `json:"triples"` // [user, item, time]
}

// EncodeStrategy writes s to w as JSON (triples in canonical order).
func EncodeStrategy(w io.Writer, s *model.Strategy) error {
	wire := strategyWire{Version: FormatVersion}
	for _, z := range s.Triples() {
		wire.Triples = append(wire.Triples, [3]int32{int32(z.U), int32(z.I), int32(z.T)})
	}
	return json.NewEncoder(w).Encode(wire)
}

// DecodeStrategy reads a strategy from r.
func DecodeStrategy(r io.Reader) (*model.Strategy, error) {
	var wire strategyWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if wire.Version != FormatVersion {
		return nil, fmt.Errorf("codec: unsupported format version %d (want %d)", wire.Version, FormatVersion)
	}
	s := model.NewStrategy()
	for _, t := range wire.Triples {
		s.Add(model.Triple{U: model.UserID(t[0]), I: model.ItemID(t[1]), T: model.TimeStep(t[2])})
	}
	return s, nil
}
