package dataframe

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// csvFlushBytes is how much encoded text WriteCSV gathers before handing
// it to the writer: large enough that a provenance artifact reaches its
// file in a few writes, small enough that no artifact is held whole.
const csvFlushBytes = 64 << 10

// csvBufs recycles WriteCSV's encode buffers; the slack past
// csvFlushBytes holds the row that crosses the flush mark.
var csvBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, csvFlushBytes+4<<10)
	return &b
}}

// WriteCSV writes the frame as RFC-4180 CSV with a header row. It is the
// on-disk artifact format used by the provenance store (§4.2.1 of the
// paper: "systematically recording all intermediate CSV files").
//
// The output is byte-for-byte what encoding/csv's Writer produces for the
// cells' StringAt text (FuzzWriteCSV holds the two together); cells are
// appended straight into one reused buffer instead of passing through a
// string each, and reach w in csvFlushBytes pieces.
func (f *Frame) WriteCSV(w io.Writer) error {
	bp := csvBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0] // keep a buffer a wide row grew
		csvBufs.Put(bp)
	}()

	for j, c := range f.cols {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, c.Name)
	}
	buf = append(buf, '\n')
	for r, n := 0, f.NumRows(); r < n; r++ {
		for j, c := range f.cols {
			if j > 0 {
				buf = append(buf, ',')
			}
			switch c.Kind {
			case Float:
				buf = strconv.AppendFloat(buf, c.F[r], 'g', -1, 64)
			case Int:
				buf = strconv.AppendInt(buf, c.I[r], 10)
			default:
				buf = appendCSVField(buf, c.S[r])
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= csvFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendCSVField appends one text cell under encoding/csv's quoting rule
// (comma ',', LF line ends): a field is quoted when it holds a comma, a
// quote, CR or LF, starts with a space character, or is `\.`; inside
// quotes only the quote itself is doubled. The empty field stays bare.
func appendCSVField(buf []byte, s string) []byte {
	if !csvFieldNeedsQuotes(s) {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			buf = append(buf, '"')
		}
		buf = append(buf, s[i])
	}
	return append(buf, '"')
}

func csvFieldNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// ReadCSV reads a CSV with a header row, inferring each column's kind:
// a column is Int if every cell parses as an integer, else Float if every
// cell parses as a float, else String. Empty input yields an error.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataframe: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataframe: read csv: empty input")
	}
	header := records[0]
	rows := records[1:]
	for i, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataframe: read csv: row %d has %d fields, header has %d", i+1, len(rec), len(header))
		}
	}

	out := New()
	for j, name := range header {
		cells := make([]string, len(rows))
		for i, rec := range rows {
			cells[i] = rec[j]
		}
		if err := out.AddColumn(inferColumn(name, cells)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// inferColumn applies ReadCSV's kind rule to one column of text cells:
// Int if every cell parses as an integer (so also when there are no
// cells), else Float if every cell parses as a float, else a String column
// over cells itself.
func inferColumn(name string, cells []string) *Column {
	isInt, isFloat := true, true
	for _, cell := range cells {
		if _, err := strconv.ParseInt(cell, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			isFloat = false
		}
		if !isInt && !isFloat {
			return NewString(name, cells)
		}
	}
	if isInt {
		vals := make([]int64, len(cells))
		for i, cell := range cells {
			vals[i], _ = strconv.ParseInt(cell, 10, 64)
		}
		return NewInt(name, vals)
	}
	vals := make([]float64, len(cells))
	for i, cell := range cells {
		vals[i], _ = strconv.ParseFloat(cell, 64)
	}
	return NewFloat(name, vals)
}

// CanonicalView returns the frame a reader of f's CSV would see —
// ReadCSV(WriteCSV(f)) in names, kinds and cells — without producing the
// text. It is how a sandboxed script receives an input table: the kinds
// are re-inferred exactly as ReadCSV infers them, and every column whose
// kind stands shares f's vector through a fresh Column marked shared, so
// the script is kept from the original by immutability (copy-on-write
// growth, no verb writes a cell in place) where the text path kept it away
// by a copy. f itself is not written to, so concurrent views of one frame
// are safe.
//
// The re-inference, column by column:
//
//   - no rows: Int, whatever the kind was (ReadCSV sees no cell that fails
//     to parse);
//   - Int: unchanged, shared;
//   - Float: Int when every cell prints as a bare integer — integral and
//     |v| < 1e6, where FormatFloat(v, 'g', -1, 64) uses no exponent (so
//     100000 converts and 1e6, 1e21, 0.5, NaN and ±Inf do not; -0 prints
//     "-0" and becomes 0) — else unchanged, shared;
//   - String: Int or Float when every cell parses as one (strconv's
//     grammar: "+7", "1e3", "inf", "0x1p-2" all count), else unchanged,
//     shared.
//
// On three inputs the text path was lossy and the view is not; they are
// the only places the two differ (TestCanonicalViewMatchesCSVRoundTrip
// covers everything else):
//
//   - a one-column frame with an empty String cell (or an empty column
//     name) writes a blank line, which encoding/csv's reader skips: the
//     text path dropped that row (or took the first row for the header);
//     the view keeps every row and the name;
//   - "\r\n" inside a quoted cell or name comes back from the reader as
//     "\n"; the view keeps the cell as it is;
//   - a frame with no columns writes a lone newline, which ReadCSV rejects
//     as empty input; the view is an empty frame.
func (f *Frame) CanonicalView() *Frame {
	out := New()
	for _, c := range f.cols {
		_ = out.AddColumn(c.canonical())
	}
	return out
}

// canonical is CanonicalView for one column.
func (c *Column) canonical() *Column {
	switch {
	case c.Len() == 0:
		return NewInt(c.Name, []int64{})
	case c.Kind == Float && allBareIntegers(c.F):
		vals := make([]int64, len(c.F))
		for i, v := range c.F {
			vals[i] = int64(v)
		}
		return NewInt(c.Name, vals)
	case c.Kind == String:
		if col := inferColumn(c.Name, c.S); col.Kind != String {
			return col
		}
	}
	view := *c
	view.shared = true
	return &view
}

// allBareIntegers reports whether FormatFloat(v, 'g', -1, 64) is an
// optional minus sign and digits for every v: integral, and below the 1e6
// where the shortest 'g' form switches to an exponent.
func allBareIntegers(vals []float64) bool {
	for _, v := range vals {
		if !(v > -1e6 && v < 1e6) || v != float64(int64(v)) {
			return false
		}
	}
	return true
}
