package dataframe

import (
	"cmp"
	"encoding/binary"
	"math"
	"strings"
)

// This file holds the two row kernels every relational verb shares: the
// row order (SortRows, CompareRows) and the row identity (KeyIndex, Group,
// Members). The script's sort, groupby, distinct, join and per-group
// builtins, SQL's ORDER BY, GROUP BY and DISTINCT, and the tools that rank
// halos all decide "which row comes first" and "which rows share a key"
// here, over typed key columns.

// OrderKey is one key of a row order: a typed column and its direction.
type OrderKey struct {
	Col  *Column
	Desc bool
}

// compareFloat orders two Float cells: numbers by value (−0 ties 0), NaN
// after every number, and NaNs tie.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b || a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// CompareRows is the row order: it compares row i of a with row j of b key
// by key, under a's directions, and returns the first nonzero result (0
// when every key ties). Float keys order by compareFloat, Int keys
// exactly, String keys bytewise; a descending key reverses its result, so
// NaN sorts last ascending and first descending. a and b hold columns of
// the same kinds in the same key order.
func CompareRows(a []OrderKey, i int, b []OrderKey, j int) int {
	for k, key := range a {
		var c int
		x, y := key.Col, b[k].Col
		switch x.Kind {
		case Float:
			c = compareFloat(x.F[i], y.F[j])
		case Int:
			c = cmp.Compare(x.I[i], y.I[j])
		default:
			c = strings.Compare(x.S[i], y.S[j]) // bytewise
		}
		if c != 0 {
			if key.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// SortRows returns the stable order of rows [0, n) under keys: position p
// holds the row that sorts p'th, and rows whose keys all tie keep their
// input order.
func SortRows(keys []OrderKey, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	mergeSort(idx, make([]int, n), func(a, b int) int { return CompareRows(keys, a, keys, b) })
	return idx
}

// mergeSort stably sorts rows by compare, with buf as scratch of the same
// length. Two halves already in order are not merged, so input that is
// sorted or nearly sorted, as staged halos are by mass, costs about one
// comparison per row.
func mergeSort(rows, buf []int, compare func(a, b int) int) {
	if len(rows) <= 12 {
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && compare(rows[j-1], rows[j]) > 0; j-- {
				rows[j-1], rows[j] = rows[j], rows[j-1]
			}
		}
		return
	}
	mid := len(rows) / 2
	mergeSort(rows[:mid], buf[:mid], compare)
	mergeSort(rows[mid:], buf[mid:], compare)
	if compare(rows[mid-1], rows[mid]) <= 0 {
		return
	}
	copy(buf, rows)
	l, r := 0, mid
	for k := range rows {
		if r == len(rows) || l < mid && compare(buf[r], buf[l]) >= 0 {
			rows[k], l = buf[l], l+1
		} else {
			rows[k], r = buf[r], r+1
		}
	}
}

// KeyIndex is the row identity: it numbers distinct key tuples densely, in
// the order Add first sees them. Two tuples are one key when every part
// is: Int by value, Float by its bits with every NaN one key (so −0 and 0
// are two keys), String by its bytes. The key kinds are fixed by the first
// Add; a later Add or Find whose kinds differ (semi_join's Int keys probed
// by Float ones, say) turns the index to text: every part then compares as
// Column.StringAt renders it, so Int 3, Float 3 and String "3" are one
// key. The zero value is an empty index.
type KeyIndex struct {
	keys []*Column      // group g's key tuple is row g
	ids  map[string]int // a tuple's encoding (appendKey) to its group
	text bool
}

// Len returns the number of groups.
func (x *KeyIndex) Len() int { return len(x.ids) }

// Add appends to dst the group of each row of cols listed in rows (every
// row of cols[0] when rows is nil). A key not seen before takes the next
// group number, Len() before it was added.
func (x *KeyIndex) Add(dst []int, cols []*Column, rows []int) []int {
	return x.probe(dst, cols, rows, true)
}

// Find is Add that adds nothing: a key not seen before yields -1.
func (x *KeyIndex) Find(dst []int, cols []*Column, rows []int) []int {
	return x.probe(dst, cols, rows, false)
}

func (x *KeyIndex) probe(dst []int, cols []*Column, rows []int, add bool) []int {
	cols = x.align(cols)
	n := len(rows)
	if rows == nil && len(cols) > 0 {
		n = cols[0].Len()
	}
	buf := make([]byte, 0, 64)
	for j := 0; j < n; j++ {
		r := j
		if rows != nil {
			r = rows[j]
		}
		buf = appendKey(buf[:0], cols, r)
		g, ok := x.ids[string(buf)]
		switch {
		case !ok && add:
			g = len(x.ids)
			x.ids[string(buf)] = g
			for i, c := range cols {
				x.keys[i].appendCell(c, r)
			}
		case !ok:
			g = -1
		}
		dst = append(dst, g)
	}
	return dst
}

// align fixes the key kinds at the first call and returns cols as the
// index compares them: as they are, or as text once the kinds differed.
func (x *KeyIndex) align(cols []*Column) []*Column {
	if x.ids == nil {
		x.ids = map[string]int{}
		x.keys = make([]*Column, len(cols))
		for i, c := range cols {
			x.keys[i] = &Column{Kind: c.Kind}
		}
	}
	for i, c := range cols {
		if !x.text && c.Kind != x.keys[i].Kind {
			x.text, x.keys = true, textColumns(x.keys)
			clear(x.ids)
			for g := range x.keys[0].S {
				x.ids[string(appendKey(nil, x.keys, g))] = g
			}
		}
	}
	if x.text {
		return textColumns(cols)
	}
	return cols
}

// textColumns returns cols with every Int and Float column rendered as a
// String column of its StringAt text.
func textColumns(cols []*Column) []*Column {
	out := make([]*Column, len(cols))
	for i, c := range cols {
		out[i] = c
		if c.Kind != String {
			s := make([]string, c.Len())
			for r := range s {
				s[r] = c.StringAt(r)
			}
			out[i] = NewString(c.Name, s)
		}
	}
	return out
}

// appendCell appends row r of src, a column of c's kind, to c.
func (c *Column) appendCell(src *Column, r int) {
	switch c.Kind {
	case Float:
		c.F = append(c.F, src.F[r])
	case Int:
		c.I = append(c.I, src.I[r])
	default:
		c.S = append(c.S, src.S[r])
	}
}

// appendKey appends row r's key tuple to b part by part: eight bytes per
// Int or Float part (every NaN the same eight), then a length and the
// bytes per String part. Tuples of the same kinds encode alike only when
// they are one key.
func appendKey(b []byte, cols []*Column, r int) []byte {
	for _, c := range cols {
		switch c.Kind {
		case Float:
			v := math.Float64bits(c.F[r])
			if c.F[r] != c.F[r] {
				v = 0x7ff8000000000001
			}
			b = binary.LittleEndian.AppendUint64(b, v)
		case Int:
			b = binary.LittleEndian.AppendUint64(b, uint64(c.I[r]))
		default:
			b = binary.AppendUvarint(b, uint64(len(c.S[r])))
			b = append(b, c.S[r]...)
		}
	}
	return b
}

// Group numbers the distinct key tuples of rows [0, n) of cols in
// first-seen order (KeyIndex's identity): ids[r] is row r's group, and
// first[g] is group g's first row. With no key columns every row is one
// group.
func Group(n int, cols ...*Column) (ids, first []int) {
	if len(cols) == 0 {
		ids = make([]int, n)
		if n > 0 {
			first = []int{0}
		}
		return ids, first
	}
	var x KeyIndex
	ids = x.Add(make([]int, 0, n), cols, nil)
	first = make([]int, 0, x.Len())
	for r, g := range ids {
		if g == len(first) {
			first = append(first, r)
		}
	}
	return ids, first
}

// Members lists the rows of each of groups groups, each in input order,
// given every row's group as Group returns them.
func Members(ids []int, groups int) [][]int {
	off := make([]int, groups+1)
	for _, g := range ids {
		off[g+1]++
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	rows := make([]int, len(ids))
	next := append([]int(nil), off[:groups]...)
	for r, g := range ids {
		rows[next[g]] = r
		next[g]++
	}
	out := make([][]int, groups)
	for g := range out {
		out[g] = rows[off[g]:off[g+1]:off[g+1]]
	}
	return out
}

// Distinct returns the first row of every distinct row of f, in order: the
// rows whose tuple over all of f's columns no earlier row holds.
func (f *Frame) Distinct() *Frame {
	_, first := Group(f.NumRows(), f.cols...)
	return f.Gather(first)
}
