package dataframe

import (
	"encoding/binary"
	"math"
	"sync/atomic"
)

// origin is where a column's cells came from: parts that cover its n rows
// back to back. A column whose length moved since has none.
type origin struct {
	n     int
	parts []originPart
}

// originPart is n cells: the whole vector numbered id, or, when konst, n
// copies of the value whose bits id holds.
type originPart struct {
	id    uint64
	n     int
	konst bool
}

var originIDs atomic.Uint64 // SetOrigin's numbers, one per vector

// SetOrigin numbers the column's whole vector with an id no other vector
// in the process gets, and returns c. The caller keeps the vector's cells
// as they are while a column over it carries the origin, as the staging
// cache keeps a resident column's. Like MarkShared it must be called
// before the column is published to concurrent readers.
func (c *Column) SetOrigin() *Column {
	c.origin = &origin{n: c.Len(), parts: []originPart{{id: originIDs.Add(1), n: c.Len()}}}
	return c
}

// SetConstOrigin records that every cell of an Int or Float column holds
// its first cell's value, and returns c; a String column is left as is.
func (c *Column) SetConstOrigin() *Column {
	var bits uint64
	switch {
	case c.Kind == String:
		return c
	case c.Kind == Float && len(c.F) > 0:
		bits = math.Float64bits(c.F[0])
	case c.Kind == Int && len(c.I) > 0:
		bits = uint64(c.I[0])
	}
	c.origin = &origin{n: c.Len(), parts: []originPart{{id: bits, n: c.Len(), konst: true}}}
	return c
}

// originParts returns the column's origin, ok false when it has none.
func (c *Column) originParts() (parts []originPart, ok bool) {
	if c.origin == nil || c.origin.n != c.Len() {
		return nil, false
	}
	return c.origin.parts, true
}

// ConcatColumn returns a column named name holding the cells of cols, of
// one kind and at least one, back to back in one new vector. When every
// source has an origin, the result's is theirs back to back.
func ConcatColumn(name string, cols ...*Column) *Column {
	total := 0
	for _, c := range cols {
		total += c.Len()
	}
	out := &Column{Name: name, Kind: cols[0].Kind}
	switch out.Kind {
	case Float:
		out.F = make([]float64, 0, total)
	case Int:
		out.I = make([]int64, 0, total)
	default:
		out.S = make([]string, 0, total)
	}
	keep := true
	var parts []originPart
	for _, c := range cols {
		out.F, out.I, out.S = append(out.F, c.F...), append(out.I, c.I...), append(out.S, c.S...)
		p, ok := c.originParts()
		keep = keep && ok
		parts = append(parts, p...)
	}
	if keep {
		out.origin = &origin{n: total, parts: parts}
	}
	return out
}

// OriginKey returns a key for the frame's CSV text: its header names and
// every column's kind and origin. Two frames with one key write the same
// bytes while the vectors its ids number keep their cells. ok is false
// when a column has no origin.
func (f *Frame) OriginKey() (key string, ok bool) {
	var b []byte
	for _, c := range f.cols {
		parts, ok := c.originParts()
		if !ok {
			return "", false
		}
		b = binary.AppendUvarint(b, uint64(len(c.Name)))
		b = binary.AppendUvarint(append(append(b, c.Name...), byte(c.Kind)), uint64(len(parts)))
		for _, p := range parts {
			konst := byte(0)
			if p.konst {
				konst = 1
			}
			b = binary.AppendUvarint(binary.AppendUvarint(append(b, konst), p.id), uint64(p.n))
		}
	}
	return string(b), true
}
