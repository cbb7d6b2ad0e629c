// Package dataframe implements a typed, columnar, in-memory table.
//
// It is the unit of data exchange across InferA: the data-loading agent
// materializes gio column selections into frames, the SQL engine returns
// frames, the analysis DSL operates on frames, and the provenance store
// serializes frames to CSV artifacts. The design mirrors a small subset of
// pandas: named, homogeneously typed columns of equal length with
// filter/select/derive/sort/group-by/join verbs.
//
// # Row order and row identity
//
// Every sort of rows, here, in the script and in SQL, is SortRows: a
// stable order over typed key columns (Float with NaN last, Int exact,
// String bytewise). Every "which rows share a key" is KeyIndex: dense
// group numbers in first-seen order over typed key tuples (rows.go).
//
// # Group aggregates
//
// Every group aggregate, the script's groupby and SQL's COUNT, SUM, AVG,
// MIN, MAX, STDDEV and MEDIAN on both engines, is a Reducer fed values
// under those dense group numbers (groupby.go). One rule holds for all of
// them: NaN is skipped, an aggregate over no value but NaN is NaN, and
// Count counts rows.
//
// # Column origins
//
// A column may say where its cells came from (origin.go): the staging
// cache numbers each resident vector once (SetOrigin), and the loader's
// constant columns name their value (SetConstOrigin). ConcatColumn keeps
// its sources' origins, so a table copied out of resident segments has a
// key (Frame.OriginKey), its header and origins, and the provenance store
// copies a repeat of it instead of formatting it. A verb that makes a new
// vector, or grows one in place, leaves the origin behind.
package dataframe

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the supported column element types.
type Kind uint8

// Column element kinds.
const (
	Float  Kind = iota // float64
	Int                // int64
	String             // string
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column is a named, homogeneously typed vector. Exactly one of F, I, S is
// populated, according to Kind.
type Column struct {
	Name string
	Kind Kind
	F    []float64
	I    []int64
	S    []string
	// shared marks the backing vector as aliased beyond this frame — by the
	// staging cache, a resident sqldb table, or a zero-copy Concat. Shared
	// vectors are immutable: in-place growth (Frame.Append) copies first
	// (copy-on-write), so every alias keeps seeing the value it was handed.
	// The flag must be set before the column is published to concurrent
	// readers; it is copied along with the struct by shell-building verbs.
	shared bool
	// origin says where the cells came from (origin.go). It is copied
	// along with the struct by the verbs that keep the vector, and never
	// set on a new one.
	origin *origin
}

// NewFloat returns a float column over vals (not copied).
func NewFloat(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: Float, F: vals}
}

// NewInt returns an int column over vals (not copied).
func NewInt(name string, vals []int64) *Column {
	return &Column{Name: name, Kind: Int, I: vals}
}

// NewString returns a string column over vals (not copied).
func NewString(name string, vals []string) *Column {
	return &Column{Name: name, Kind: String, S: vals}
}

// MarkShared flags the column's backing vector as aliased by another
// holder (cache entry, resident table, concatenated frame). Mutating verbs
// copy-on-write instead of growing it in place. Returns c for chaining.
//
// The flag write is skipped when already set: a column published to many
// goroutines (e.g. a staging-cache vector) is marked before publication,
// so concurrent re-marks stay read-only and race-free. Only
// single-goroutine-owned columns ever transition the flag.
func (c *Column) MarkShared() *Column {
	if !c.shared {
		c.shared = true
	}
	return c
}

// IsShared reports whether the backing vector is marked shared.
func (c *Column) IsShared() bool { return c.shared }

// Len returns the number of elements in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case Float:
		return len(c.F)
	case Int:
		return len(c.I)
	default:
		return len(c.S)
	}
}

// Value returns element i as an any (float64, int64 or string).
func (c *Column) Value(i int) any {
	switch c.Kind {
	case Float:
		return c.F[i]
	case Int:
		return c.I[i]
	default:
		return c.S[i]
	}
}

// FloatAt returns element i coerced to float64. String elements yield NaN.
func (c *Column) FloatAt(i int) float64 {
	switch c.Kind {
	case Float:
		return c.F[i]
	case Int:
		return float64(c.I[i])
	default:
		if v, err := strconv.ParseFloat(c.S[i], 64); err == nil {
			return v
		}
		return math.NaN()
	}
}

// IntAt returns element i coerced to int64 (floats truncate; strings parse
// or yield 0).
func (c *Column) IntAt(i int) int64 {
	switch c.Kind {
	case Float:
		return int64(c.F[i])
	case Int:
		return c.I[i]
	default:
		v, _ := strconv.ParseInt(c.S[i], 10, 64)
		return v
	}
}

// StringAt returns element i formatted as a string.
func (c *Column) StringAt(i int) string {
	switch c.Kind {
	case Float:
		return strconv.FormatFloat(c.F[i], 'g', -1, 64)
	case Int:
		return strconv.FormatInt(c.I[i], 10)
	default:
		return c.S[i]
	}
}

// Floats returns the column as a []float64, converting if necessary.
// For Float columns the backing slice is returned without copying.
func (c *Column) Floats() []float64 {
	if c.Kind == Float {
		return c.F
	}
	out := make([]float64, c.Len())
	for i := range out {
		out[i] = c.FloatAt(i)
	}
	return out
}

// Clone returns a deep copy of the column.
func (c *Column) Clone() *Column {
	cp := &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case Float:
		cp.F = append([]float64(nil), c.F...)
	case Int:
		cp.I = append([]int64(nil), c.I...)
	default:
		cp.S = append([]string(nil), c.S...)
	}
	return cp
}

// gather returns a new column holding the elements at idx, in order.
func (c *Column) gather(idx []int) *Column {
	out := &Column{Name: c.Name, Kind: c.Kind}
	switch c.Kind {
	case Float:
		out.F = make([]float64, len(idx))
		gatherInto(out.F, c.F, idx)
	case Int:
		out.I = make([]int64, len(idx))
		gatherInto(out.I, c.I, idx)
	default:
		out.S = make([]string, len(idx))
		gatherInto(out.S, c.S, idx)
	}
	return out
}

// gatherInto copies src[idx[j]] into dst[j] for every j, batching runs of
// consecutive indices into single copy calls. Selection vectors produced by
// the SQL engine are mostly long ascending runs (whole blocks surviving a
// filter, Head/Slice windows), where bulk copy beats element-wise moves.
func gatherInto[T any](dst, src []T, idx []int) {
	j := 0
	for j < len(idx) {
		start := idx[j]
		k := j + 1
		for k < len(idx) && idx[k] == idx[k-1]+1 {
			k++
		}
		copy(dst[j:k], src[start:start+(k-j)])
		j = k
	}
}

// Frame is an ordered collection of equal-length columns with unique names.
// The zero value is an empty frame ready for AddColumn.
type Frame struct {
	cols  []*Column
	index map[string]int
}

// New returns an empty frame.
func New() *Frame { return &Frame{index: map[string]int{}} }

// FromColumns builds a frame from cols, validating unique names and equal
// lengths.
func FromColumns(cols ...*Column) (*Frame, error) {
	f := New()
	for _, c := range cols {
		if err := f.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// MustFromColumns is FromColumns that panics on error; intended for tests
// and literals with statically known shape.
func MustFromColumns(cols ...*Column) *Frame {
	f, err := FromColumns(cols...)
	if err != nil {
		panic(err)
	}
	return f
}

// AddColumn appends c to the frame. It fails if the name already exists or
// the length disagrees with existing columns.
func (f *Frame) AddColumn(c *Column) error {
	if f.index == nil {
		f.index = map[string]int{}
	}
	if _, dup := f.index[c.Name]; dup {
		return fmt.Errorf("dataframe: duplicate column %q", c.Name)
	}
	if len(f.cols) > 0 && c.Len() != f.NumRows() {
		return fmt.Errorf("dataframe: column %q has %d rows, frame has %d", c.Name, c.Len(), f.NumRows())
	}
	f.index[c.Name] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// NumRows returns the row count (0 for an empty frame).
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Has reports whether a column named name exists.
func (f *Frame) Has(name string) bool {
	_, ok := f.index[name]
	return ok
}

// Column returns the column named name.
func (f *Frame) Column(name string) (*Column, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, &ColumnError{Name: name, Available: f.Names()}
	}
	return f.cols[i], nil
}

// MustColumn is Column that panics if the column is missing.
func (f *Frame) MustColumn(name string) *Column {
	c, err := f.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ColumnAt returns the i'th column.
func (f *Frame) ColumnAt(i int) *Column { return f.cols[i] }

// ColumnError reports a reference to a nonexistent column; its message is
// deliberately Python-KeyError-like because the QA agent parses it to guide
// code repair.
type ColumnError struct {
	Name      string
	Available []string
}

func (e *ColumnError) Error() string {
	return fmt.Sprintf("KeyError: column %q not found (available: %v)", e.Name, e.Available)
}

// Select returns a new frame with only the named columns, in the given
// order. Columns are shared, not copied.
func (f *Frame) Select(names ...string) (*Frame, error) {
	out := New()
	for _, n := range names {
		c, err := f.Column(n)
		if err != nil {
			return nil, err
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Drop returns a new frame without the named columns. Unknown names are
// ignored.
func (f *Frame) Drop(names ...string) *Frame {
	dropped := map[string]bool{}
	for _, n := range names {
		dropped[n] = true
	}
	out := New()
	for _, c := range f.cols {
		if !dropped[c.Name] {
			_ = out.AddColumn(c)
		}
	}
	return out
}

// Rename returns a new frame with column old renamed to new; column data is
// shared.
func (f *Frame) Rename(old, new string) (*Frame, error) {
	c, err := f.Column(old)
	if err != nil {
		return nil, err
	}
	out := New()
	for _, col := range f.cols {
		use := col
		if col == c {
			cc := *col
			cc.Name = new
			use = &cc
		}
		if err := out.AddColumn(use); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := New()
	for _, c := range f.cols {
		_ = out.AddColumn(c.Clone())
	}
	return out
}

// Shallow returns a fresh frame shell sharing every column of f. Callers
// may add or drop columns on the shell without affecting f; the shared
// column data itself must be treated as immutable (see MarkShared).
func (f *Frame) Shallow() *Frame {
	out := New()
	for _, c := range f.cols {
		_ = out.AddColumn(c)
	}
	return out
}

// MarkShared flags every column of f as shared (see Column.MarkShared) and
// returns f — used when a frame is published as a long-lived alias, e.g. a
// resident database table.
func (f *Frame) MarkShared() *Frame {
	for _, c := range f.cols {
		c.MarkShared()
	}
	return f
}

// Gather returns a new frame containing the rows at idx, in order.
func (f *Frame) Gather(idx []int) *Frame {
	out := New()
	for _, c := range f.cols {
		_ = out.AddColumn(c.gather(idx))
	}
	return out
}

// Filter returns the rows for which pred returns true.
func (f *Frame) Filter(pred func(row int) bool) *Frame {
	var idx []int
	for i := 0; i < f.NumRows(); i++ {
		if pred(i) {
			idx = append(idx, i)
		}
	}
	return f.Gather(idx)
}

// Head returns the first n rows (all rows if n exceeds NumRows).
func (f *Frame) Head(n int) *Frame { return f.Slice(0, n) }

// Slice returns rows [lo, hi).
func (f *Frame) Slice(lo, hi int) *Frame {
	if lo < 0 {
		lo = 0
	}
	if hi > f.NumRows() {
		hi = f.NumRows()
	}
	if hi < lo {
		hi = lo
	}
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return f.Gather(idx)
}

// SortKey names a column and direction for SortBy.
type SortKey struct {
	Col  string
	Desc bool
}

// SortBy returns a new frame stably sorted by the given keys (SortRows).
func (f *Frame) SortBy(keys ...SortKey) (*Frame, error) {
	order := make([]OrderKey, len(keys))
	for i, k := range keys {
		c, err := f.Column(k.Col)
		if err != nil {
			return nil, err
		}
		order[i] = OrderKey{Col: c, Desc: k.Desc}
	}
	return f.Gather(SortRows(order, f.NumRows())), nil
}

// Append concatenates other below f. Schemas (names, order, kinds) must
// match exactly. Columns marked shared are not grown in place: the frame
// re-points at a freshly copied vector (copy-on-write), so aliases holding
// the shared vector — cache entries, resident tables, sibling shells —
// keep seeing the pre-append data.
func (f *Frame) Append(other *Frame) error {
	if f.NumCols() != other.NumCols() {
		return fmt.Errorf("dataframe: append schema mismatch: %d vs %d columns", f.NumCols(), other.NumCols())
	}
	for i, c := range f.cols {
		oc := other.cols[i]
		if c.Name != oc.Name || c.Kind != oc.Kind {
			return fmt.Errorf("dataframe: append schema mismatch at column %d: %s/%s vs %s/%s",
				i, c.Name, c.Kind, oc.Name, oc.Kind)
		}
	}
	for i, c := range f.cols {
		oc := other.cols[i]
		if c.shared {
			// Copy-on-write: the Column object itself may be aliased by other
			// frame shells, so the copy replaces this frame's pointer rather
			// than mutating the shared object.
			c = c.Clone()
			f.cols[i] = c
		}
		c.origin = nil // the vector grows: its origin no longer describes it
		switch c.Kind {
		case Float:
			c.F = append(c.F, oc.F...)
		case Int:
			c.I = append(c.I, oc.I...)
		default:
			c.S = append(c.S, oc.S...)
		}
	}
	return nil
}

// Concat returns a new frame holding the rows of all frames in order.
// Schemas must match (same column names and kinds, same order). Unlike
// chained Append calls, Concat allocates each destination vector exactly
// once, so concatenating k frames costs one copy of the data instead of
// O(k) re-copies.
//
// Concatenating a single frame is zero-copy: the result shares the input's
// column vectors, and both sides are marked shared so any later in-place
// growth copies first (copy-on-write). The multi-frame path never aliases
// or mutates its inputs, which makes Concat safe over frames sharing
// immutable cached column vectors.
func Concat(frames ...*Frame) (*Frame, error) {
	if len(frames) == 0 {
		return New(), nil
	}
	if len(frames) == 1 {
		// Zero-copy fast path: a fresh shell over the same vectors. Marking
		// the columns shared makes growth on either alias copy-on-write.
		out := New()
		src := frames[0]
		for i := 0; i < src.NumCols(); i++ {
			if err := out.AddColumn(src.ColumnAt(i).MarkShared()); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	first := frames[0]
	for fi, f := range frames {
		if f.NumCols() != first.NumCols() {
			return nil, fmt.Errorf("dataframe: concat schema mismatch: frame %d has %d columns, want %d", fi, f.NumCols(), first.NumCols())
		}
		for i, c := range first.cols {
			oc := f.cols[i]
			if c.Name != oc.Name || c.Kind != oc.Kind {
				return nil, fmt.Errorf("dataframe: concat schema mismatch at frame %d column %d: %s/%s vs %s/%s",
					fi, i, oc.Name, oc.Kind, c.Name, c.Kind)
			}
		}
	}
	out := New()
	cols := make([]*Column, len(frames))
	for i, c := range first.cols {
		for fi, f := range frames {
			cols[fi] = f.cols[i]
		}
		if err := out.AddColumn(ConcatColumn(c.Name, cols...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Equal reports whether a and b have identical schemas and cell values.
// Float cells compare with exact equality except NaN==NaN.
func Equal(a, b *Frame) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for i := range a.cols {
		ca, cb := a.cols[i], b.cols[i]
		if ca.Name != cb.Name || ca.Kind != cb.Kind {
			return false
		}
		for r := 0; r < ca.Len(); r++ {
			switch ca.Kind {
			case Float:
				x, y := ca.F[r], cb.F[r]
				if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
					return false
				}
			case Int:
				if ca.I[r] != cb.I[r] {
					return false
				}
			default:
				if ca.S[r] != cb.S[r] {
					return false
				}
			}
		}
	}
	return true
}

// String renders the frame as an aligned text table (at most 20 rows),
// suitable for logs and the documentation agent.
func (f *Frame) String() string {
	const maxRows = 20
	n := f.NumRows()
	shown := n
	if shown > maxRows {
		shown = maxRows
	}
	widths := make([]int, f.NumCols())
	cells := make([][]string, shown+1)
	cells[0] = f.Names()
	for j, name := range cells[0] {
		widths[j] = len(name)
	}
	for r := 0; r < shown; r++ {
		row := make([]string, f.NumCols())
		for j, c := range f.cols {
			s := c.StringAt(r)
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
			row[j] = s
		}
		cells[r+1] = row
	}
	var out []byte
	for _, row := range cells {
		for j, s := range row {
			if j > 0 {
				out = append(out, ' ', ' ')
			}
			out = append(out, []byte(fmt.Sprintf("%-*s", widths[j], s))...)
		}
		out = append(out, '\n')
	}
	if n > shown {
		out = append(out, []byte(fmt.Sprintf("... (%d rows total)\n", n))...)
	}
	return string(out)
}
