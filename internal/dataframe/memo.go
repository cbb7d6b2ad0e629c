package dataframe

import (
	"encoding/binary"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// CellMemo holds the CSV text of one Float vector's cells, built the
// first time WriteCSV needs it and then unpacked instead of formatted. The
// staging cache gives one to every resident column (Column.SetCellMemo),
// so a table whose cells come from resident columns is written by copying
// the text each of them built once.
//
// A memo is only ever reached through columns over the vector it was made
// for, and it is used only while its cell count matches: no verb that
// makes a new vector (Gather, Head, Slice, SortBy, Filter, Clone,
// copy-on-write growth) carries it over. Its owner drops it (Drop) before
// the vector's values may change.
type CellMemo struct {
	once    sync.Once
	text    atomic.Pointer[cellText]
	dropped atomic.Bool
	charge  func(bytes int64) bool
}

// cellText is a memo's content: every cell's FormatFloat(v, 'g', -1, 64)
// text back to back, two characters to a byte, and each cell's length in
// characters (at most 24, so one byte each). A finite float's text uses
// only '+', '-', '.', the digits and 'e', so each character packs into 4
// bits as its distance from '+' ('e' is 15), and the memo costs about half
// the text: it stays on the heap while its column is resident, and the
// collector paces itself by it. A cell of length 0 (NaN, ±Inf) is
// formatted again; strconv prints those without its shortest-digits
// search. buf ends in memoPad zero bytes, so a cell's packed bytes can be
// read four at a time.
type cellText struct {
	buf  []byte
	lens []uint8
}

const memoPad = 3

func (t *cellText) size() int64 { return int64(len(t.buf) + len(t.lens)) }

// memoCode maps a character to its 4-bit code plus one; 0 for a character
// no code stands for.
var memoCode = func() (t [256]uint8) {
	for _, ch := range []byte("+-.0123456789") {
		t[ch] = ch - '+' + 1
	}
	t['e'] = 16
	return t
}()

// unpack8 turns four packed bytes into their eight characters, the first
// in the low byte: each byte's two codes are spread into a byte each, and
// code c becomes '+'+c, or 'e' for 15.
func unpack8(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v>>4)&0x000F000F000F000F | (v&0x000F000F000F000F)<<8
	e := ((v + 0x0101010101010101) >> 4) & 0x0101010101010101 // 1 where a code is 15
	return v + 0x2B2B2B2B2B2B2B2B + e*('e'-'+'-15)
}

// NewCellMemo returns an empty memo. charge, when not nil, is called once,
// with the size of the text the first build produced; returning false
// discards the text, and the memo stays empty.
func NewCellMemo(charge func(bytes int64) bool) *CellMemo {
	return &CellMemo{charge: charge}
}

// Drop empties the memo for good: no later WriteCSV copies from it or
// builds it. A writer that already holds the text finishes with it. A nil
// memo does nothing.
func (m *CellMemo) Drop() {
	if m == nil {
		return
	}
	m.dropped.Store(true)
	m.text.Store(nil)
}

// textFor returns the memo's text for vals, the cells it was made for,
// building it on first use; nil when the memo is dropped or discarded, or
// holds another number of cells.
func (m *CellMemo) textFor(vals []float64) *cellText {
	if m.dropped.Load() {
		return nil
	}
	m.once.Do(func() {
		t := formatCells(vals)
		if m.charge != nil && !m.charge(t.size()) {
			return
		}
		m.text.Store(t)
		if m.dropped.Load() { // a Drop raced the build
			m.text.Store(nil)
		}
	})
	t := m.text.Load()
	if t == nil || len(t.lens) != len(vals) {
		return nil
	}
	return t
}

// memoScratch recycles formatCells' working buffer, so a build allocates
// only the text it keeps.
var memoScratch = sync.Pool{New: func() any { return new([]byte) }}

// formatCells formats vals as WriteCSV does and packs the text into an
// exactly sized memo.
func formatCells(vals []float64) *cellText {
	bp := memoScratch.Get().(*[]byte)
	buf := (*bp)[:0]
	lens := make([]uint8, len(vals))
	var cell [32]byte
	for i, v := range vals {
		text := strconv.AppendFloat(cell[:0], v, 'g', -1, 64)
		if !packable(text) {
			continue // length 0: formatted on every write
		}
		lens[i] = uint8(len(text))
		for j := 0; j < len(text); j += 2 {
			b := (memoCode[text[j]] - 1) << 4
			if j+1 < len(text) {
				b |= memoCode[text[j+1]] - 1
			}
			buf = append(buf, b)
		}
	}
	buf = append(buf, make([]byte, memoPad)...)
	t := &cellText{buf: append([]byte(nil), buf...), lens: lens}
	*bp = buf[:0]
	memoScratch.Put(bp)
	return t
}

// packable reports whether every character of text has a 4-bit code.
func packable(text []byte) bool {
	for _, ch := range text {
		if memoCode[ch] == 0 {
			return false
		}
	}
	return true
}

// cellSource is where WriteCSV finds the text of a Float column's cells
// without formatting them: row ranges, each a whole vector some memo was
// made for. n is the column's length when the ranges were set; a column
// of another length ignores them.
type cellSource struct {
	n     int
	parts []cellPart
}

// cellPart is rows [off, off+n) of a column, whose text memo holds.
type cellPart struct {
	memo   *CellMemo
	off, n int
}

// SetCellMemo makes m the memo of the column's whole vector and returns c.
// It is a no-op on an empty or non-Float column. Like MarkShared it must
// be called before the column is published to concurrent readers.
func (c *Column) SetCellMemo(m *CellMemo) *Column {
	if c.Kind == Float && len(c.F) > 0 {
		c.cells = &cellSource{n: len(c.F), parts: []cellPart{{memo: m, n: len(c.F)}}}
	}
	return c
}

// memoParts returns the column's memoised row ranges, none when it has
// none or its length moved since they were set.
func (c *Column) memoParts() []cellPart {
	if c.cells == nil || c.Kind != Float || c.cells.n != len(c.F) {
		return nil
	}
	return c.cells.parts
}

// HasCellText reports whether WriteCSV would unpack any of the column's
// cells from a memo that is built now.
func (c *Column) HasCellText() bool {
	for _, p := range c.memoParts() {
		if t := p.memo.text.Load(); t != nil && len(t.lens) == p.n {
			return true
		}
	}
	return false
}

// ConcatColumn returns a column named name holding the cells of cols, of
// one kind and at least one, back to back in one new vector. A Float
// result keeps the memoised row ranges of its sources, shifted to where
// they landed, so WriteCSV unpacks their text instead of formatting it.
func ConcatColumn(name string, cols ...*Column) *Column {
	total := 0
	for _, c := range cols {
		total += c.Len()
	}
	out := &Column{Name: name, Kind: cols[0].Kind}
	switch out.Kind {
	case Float:
		out.F = make([]float64, 0, total)
		var parts []cellPart
		for _, c := range cols {
			for _, p := range c.memoParts() {
				parts = append(parts, cellPart{memo: p.memo, off: len(out.F) + p.off, n: p.n})
			}
			out.F = append(out.F, c.F...)
		}
		if len(parts) > 0 {
			out.cells = &cellSource{n: total, parts: parts}
		}
	case Int:
		out.I = make([]int64, 0, total)
		for _, c := range cols {
			out.I = append(out.I, c.I...)
		}
	default:
		out.S = make([]string, 0, total)
		for _, c := range cols {
			out.S = append(out.S, c.S...)
		}
	}
	return out
}

// csvCursor walks one column's cells for WriteCSV: inside a memoised row
// range it unpacks each cell's text, elsewhere it formats.
type csvCursor struct {
	c     *Column
	parts []cellPart // the ranges not yet reached
	end   int        // the row where the current range ends; -1 for none
	text  *cellText  // the current range's text; nil formats
	pos   int        // the next cell's packed offset in text.buf
	li    int        // the next cell's index in text.lens
}

func newCSVCursor(c *Column) csvCursor {
	k := csvCursor{c: c, parts: c.memoParts(), end: -1}
	if len(k.parts) > 0 {
		k.seek(0)
	}
	return k
}

// seek starts the range that holds row r: the next part's text (built now
// if it is not yet), or formatting up to the next part.
func (k *csvCursor) seek(r int) {
	k.text, k.end = nil, -1
	if len(k.parts) == 0 {
		return
	}
	p := k.parts[0]
	if p.off > r {
		k.end = p.off
		return
	}
	k.parts = k.parts[1:]
	k.end = p.off + p.n
	if t := p.memo.textFor(k.c.F[p.off : p.off+p.n]); t != nil {
		k.text, k.pos, k.li = t, 0, 0
	}
}

// unpack appends the l characters of the cursor's next packed cell, eight
// at a time.
func (k *csvCursor) unpack(buf []byte, l int) []byte {
	src := k.text.buf[k.pos:]
	k.pos += (l + 1) / 2
	n := len(buf)
	buf = slices.Grow(buf, l+8)
	dst := buf[n : n+l+8]
	for i := 0; 2*i < l; i += 4 {
		binary.LittleEndian.PutUint64(dst[2*i:], unpack8(binary.LittleEndian.Uint32(src[i:])))
	}
	return buf[:n+l]
}

// appendCell appends row r's cell, the cursor's next one.
func (k *csvCursor) appendCell(buf []byte, r int) []byte {
	if r == k.end {
		k.seek(r)
	}
	if t := k.text; t != nil {
		l := int(t.lens[k.li])
		k.li++
		if l > 0 {
			return k.unpack(buf, l)
		}
	}
	switch c := k.c; c.Kind {
	case Float:
		return strconv.AppendFloat(buf, c.F[r], 'g', -1, 64)
	case Int:
		return strconv.AppendInt(buf, c.I[r], 10)
	default:
		return appendCSVField(buf, c.S[r])
	}
}
