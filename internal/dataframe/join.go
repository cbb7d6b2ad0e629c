package dataframe

import (
	"fmt"
	"math"
)

// JoinKind selects the join semantics.
type JoinKind uint8

// Join kinds.
const (
	Inner JoinKind = iota
	Left
)

// Join performs an equi-join of left and right on the column named on,
// which must exist in both frames with the same kind. Right-side columns
// that collide with left-side names are suffixed "_right" (pandas-style).
// Row order follows the left frame; multiple matches expand pairwise.
func Join(left, right *Frame, on string, kind JoinKind) (*Frame, error) {
	lc, err := left.Column(on)
	if err != nil {
		return nil, fmt.Errorf("join left: %w", err)
	}
	rc, err := right.Column(on)
	if err != nil {
		return nil, fmt.Errorf("join right: %w", err)
	}
	if lc.Kind != rc.Kind {
		return nil, fmt.Errorf("dataframe: join key %q kind mismatch: %s vs %s", on, lc.Kind, rc.Kind)
	}

	var x KeyIndex
	rIDs := x.Add(make([]int, 0, right.NumRows()), []*Column{rc}, nil)
	members := Members(rIDs, x.Len())
	var lRows, rRows []int // rRows[i] == -1 marks an unmatched left row
	for l, g := range x.Find(make([]int, 0, left.NumRows()), []*Column{lc}, nil) {
		if g < 0 {
			if kind == Left {
				lRows = append(lRows, l)
				rRows = append(rRows, -1)
			}
			continue
		}
		for _, r := range members[g] {
			lRows = append(lRows, l)
			rRows = append(rRows, r)
		}
	}

	out := left.Gather(lRows)
	for _, c := range right.cols {
		if c.Name == on {
			continue
		}
		name := c.Name
		if out.Has(name) {
			name += "_right"
		}
		col := gatherWithMissing(c, rRows)
		col.Name = name
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gatherWithMissing is Column.gather extended with -1 indices producing the
// kind's null surrogate (NaN / 0 / "").
func gatherWithMissing(c *Column, idx []int) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case Float:
		out.F = gatherOr(c.F, idx, math.NaN())
	case Int:
		out.I = gatherOr(c.I, idx, 0)
	default:
		out.S = gatherOr(c.S, idx, "")
	}
	return out
}

// gatherOr returns src[i] for every i of idx, and missing for each -1.
func gatherOr[T any](src []T, idx []int, missing T) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = missing
		if i >= 0 {
			out[j] = src[i]
		}
	}
	return out
}
