package dataframe

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceWriteCSV is WriteCSV as it was before the append-based encoder:
// every cell through StringAt into encoding/csv's Writer. It is the oracle
// the encoder is held to, byte for byte.
func referenceWriteCSV(f *Frame, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Names()); err != nil {
		return err
	}
	row := make([]string, f.NumCols())
	for r := 0; r < f.NumRows(); r++ {
		for j, c := range f.cols {
			row[j] = c.StringAt(r)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func assertSameCSV(t *testing.T, f *Frame) {
	t.Helper()
	var got, want bytes.Buffer
	if err := f.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteCSV(f, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encoder and encoding/csv disagree\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
	}
}

// csvEdgeStrings are the text cells the quoting rule turns on.
var csvEdgeStrings = []string{
	"", "plain", "a,b", `say "hi"`, `"`, `""`, "line\nbreak", "cr\rhere", "crlf\r\nhere", "\n", "\r",
	" leading space", "\tleading tab", "\u00a0leading nbsp", "\u2003leading em space", "trailing ",
	`\.`, `\.x`, `x\.`, "\xff\xfe", "é", "1", "-7", "+7", "1e3", "0x1p-2", "inf", "NaN", " 1", "1_000", "007",
	"9223372036854775808", "1e400", "0.5", "-0",
}

// csvEdgeFloats are the numbers whose text form changes shape: the
// integral ones below and above the 1e6 where 'g' switches to an exponent,
// the non-finite ones, the signed zero.
var csvEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e5, 999999, -999999, 1e6, -1e6, 1234567, 1e21, 1e-5, 1e-4,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 3e14, 1.0 / 3,
}

func FuzzWriteCSV(f *testing.F) {
	for i, s := range csvEdgeStrings {
		f.Add(s, csvEdgeStrings[(i+1)%len(csvEdgeStrings)], csvEdgeFloats[i%len(csvEdgeFloats)], int64(i)-3)
	}
	f.Add("name", "cell", 1e21, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, a, b string, x float64, n int64) {
		// a doubles as a column name, so names meet the quoting rule too.
		assertSameCSV(t, MustFromColumns(
			NewString(a+"0", []string{a, b, ""}),
			NewFloat(b+"1", []float64{x, -x, x * 10}),
			NewInt("n", []int64{n, -n, 0}),
			NewString(a+"3", []string{"", b, a}),
		))
		assertSameCSV(t, MustFromColumns(NewString(a, []string{b, "", a})))
	})
}

func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	assertSameCSV(t, New())
	assertSameCSV(t, MustFromColumns(NewString("s", nil), NewFloat("f", nil)))
	assertSameCSV(t, MustFromColumns(NewString("s", csvEdgeStrings)))
	assertSameCSV(t, MustFromColumns(NewFloat("f", csvEdgeFloats)))
	assertSameCSV(t, MustFromColumns(
		NewString("s", csvEdgeStrings[:len(csvEdgeFloats)]),
		NewFloat("f", csvEdgeFloats),
	))
}

// chunkWriter records the size of every Write it receives.
type chunkWriter struct {
	bytes.Buffer
	chunks []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, len(p))
	return w.Buffer.Write(p)
}

// A frame larger than the encode buffer reaches the writer in pieces of
// about csvFlushBytes — never whole — and still byte-identical.
func TestWriteCSVStreamsLargeFrames(t *testing.T) {
	const rows = 40_000
	vals := make([]float64, rows)
	tags := make([]int64, rows)
	names := make([]string, rows)
	for i := range vals {
		vals[i] = float64(i) * 1.25e9
		tags[i] = int64(i)
		names[i] = fmt.Sprintf("halo %d, \"x\"", i)
	}
	f := MustFromColumns(NewInt("tag", tags), NewFloat("mass", vals), NewString("name", names))
	var got chunkWriter
	if err := f.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := referenceWriteCSV(f, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("large frame: encoder and encoding/csv disagree")
	}
	if len(got.chunks) < want.Len()/(2*csvFlushBytes) {
		t.Errorf("%d bytes arrived in %d writes, want pieces of about %d", want.Len(), len(got.chunks), csvFlushBytes)
	}
	for _, n := range got.chunks {
		if n > 2*csvFlushBytes {
			t.Errorf("a write of %d bytes: the encoder held more than its buffer", n)
		}
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after--; w.after < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestWriteCSVReturnsWriterError(t *testing.T) {
	vals := make([]int64, 50_000)
	f := MustFromColumns(NewInt("a", vals), NewInt("b", vals))
	for _, after := range []int{0, 1} {
		if err := f.WriteCSV(&failingWriter{after: after}); err != io.ErrClosedPipe {
			t.Errorf("failing after %d writes: err = %v, want io.ErrClosedPipe", after, err)
		}
	}
}

// sameCells is Equal made strict about floats: the same bits, or both NaN
// (the text path returns the one quiet NaN whatever went in).
func sameCells(a, b *Frame) error {
	if a.NumCols() != b.NumCols() {
		return fmt.Errorf("%d columns vs %d", a.NumCols(), b.NumCols())
	}
	for j := range a.cols {
		ca, cb := a.cols[j], b.cols[j]
		if ca.Name != cb.Name || ca.Kind != cb.Kind || ca.Len() != cb.Len() {
			return fmt.Errorf("column %d: %q %s[%d] vs %q %s[%d]", j, ca.Name, ca.Kind, ca.Len(), cb.Name, cb.Kind, cb.Len())
		}
		for r := 0; r < ca.Len(); r++ {
			same := ca.Value(r) == cb.Value(r)
			if ca.Kind == Float {
				x, y := ca.F[r], cb.F[r]
				same = math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
			}
			if !same {
				return fmt.Errorf("column %q row %d: %v vs %v", ca.Name, r, ca.Value(r), cb.Value(r))
			}
		}
	}
	return nil
}

func csvRoundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV of %q: %v", buf.String(), err)
	}
	return back
}

// edgeFrame draws a frame of 2-5 columns and 0-6 rows whose cells come
// from the edge pools, with whole columns of bare integers, of numeric text
// and of mixed values likely — the cases the kind re-inference turns on. It
// stays off the inputs CanonicalView documents as lossy in text: one-column
// frames and CR LF inside a cell.
func edgeFrame(rng *rand.Rand) *Frame {
	rows := rng.Intn(7)
	f := New()
	for j, ncols := 0, 2+rng.Intn(4); j < ncols; j++ {
		name := fmt.Sprintf("c%d%s", j, strings.ReplaceAll(csvEdgeStrings[rng.Intn(len(csvEdgeStrings))], "\r\n", "\n"))
		var c *Column
		switch rng.Intn(3) {
		case 0:
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = rng.Int63n(2000) - 1000
			}
			c = NewInt(name, vals)
		case 1:
			vals := make([]float64, rows)
			bare := rng.Intn(2) == 0 // every cell an integer below 1e6
			for i := range vals {
				if bare {
					vals[i] = float64(rng.Intn(2_000_001)-1_000_000) * float64(rng.Intn(2))
				} else {
					vals[i] = csvEdgeFloats[rng.Intn(len(csvEdgeFloats))]
				}
			}
			c = NewFloat(name, vals)
		default:
			vals := make([]string, rows)
			numeric := rng.Intn(2) == 0 // every cell text strconv parses
			for i := range vals {
				if numeric {
					vals[i] = []string{"1", "-7", "+7", "007", "1e3", "0.5", "inf", "NaN", "0x1p-2", "9223372036854775808"}[rng.Intn(10)]
				} else {
					vals[i] = strings.ReplaceAll(csvEdgeStrings[rng.Intn(len(csvEdgeStrings))], "\r\n", "\n")
				}
			}
			c = NewString(name, vals)
		}
		if err := f.AddColumn(c); err != nil {
			panic(err)
		}
	}
	return f
}

// The invariant that lets the sandbox drop the text copy: the view a script
// receives is, in names, kinds and cells, what ReadCSV(WriteCSV(f)) returned.
func TestCanonicalViewMatchesCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kinds := map[[2]Kind]int{}
	for i := 0; i < 5000; i++ {
		f := edgeFrame(rng)
		view, back := f.CanonicalView(), csvRoundTrip(t, f)
		if err := sameCells(view, back); err != nil {
			var buf bytes.Buffer
			_ = f.WriteCSV(&buf)
			t.Fatalf("frame %d: view vs text round trip: %v\ncsv: %q", i, err, buf.String())
		}
		for j, c := range f.cols {
			kinds[[2]Kind{c.Kind, view.cols[j].Kind}]++
		}
		// The same over a parsed frame, as the HTTP server has it: there
		// the text path parsed, wrote and parsed again ("1e3" is Float 1000
		// after one parse and Int after two).
		if err := sameCells(back.CanonicalView(), csvRoundTrip(t, back)); err != nil {
			t.Fatalf("frame %d: view of the parsed frame vs its round trip: %v", i, err)
		}
	}
	for _, tr := range [][2]Kind{{Float, Int}, {Float, Float}, {String, Int}, {String, Float}, {String, String}, {Int, Int}} {
		if kinds[tr] == 0 {
			t.Errorf("no column went %s -> %s: the generator misses a case", tr[0], tr[1])
		}
	}
}

func TestCanonicalViewKinds(t *testing.T) {
	f := MustFromColumns(
		NewFloat("bare", []float64{100000, -999999, math.Copysign(0, -1)}),
		NewFloat("exp", []float64{1, 2, 1e6}),
		NewFloat("frac", []float64{1, 2, 0.5}),
		NewFloat("nan", []float64{1, 2, math.NaN()}),
		NewString("ints", []string{"1", "+7", "-3"}),
		NewString("floats", []string{"1", "1e3", "inf"}),
		NewString("text", []string{"1", "2", "x"}),
	)
	want := []Kind{Int, Float, Float, Float, Int, Float, String}
	view := f.CanonicalView()
	for j, k := range want {
		if got := view.ColumnAt(j).Kind; got != k {
			t.Errorf("column %q: kind %s, want %s", view.ColumnAt(j).Name, got, k)
		}
	}
	if got := view.MustColumn("bare").I; got[0] != 100000 || got[1] != -999999 || got[2] != 0 {
		t.Errorf("bare = %v", got)
	}
	if err := sameCells(view, csvRoundTrip(t, f)); err != nil {
		t.Error(err)
	}
	empty := MustFromColumns(NewFloat("f", nil), NewString("s", nil)).CanonicalView()
	if empty.ColumnAt(0).Kind != Int || empty.ColumnAt(1).Kind != Int || empty.NumRows() != 0 {
		t.Errorf("zero-row view kinds = %s, %s; want int, int", empty.ColumnAt(0).Kind, empty.ColumnAt(1).Kind)
	}
}

// Columns whose kind stands are shared, not copied, and shared safely: the
// view's column is marked, the source's flag and vector are never written.
func TestCanonicalViewSharesImmutably(t *testing.T) {
	src := MustFromColumns(
		NewInt("i", []int64{1, 2}),
		NewFloat("f", []float64{0.5, 1e9}),
		NewString("s", []string{"a", "b"}),
	)
	view := src.CanonicalView()
	if &view.MustColumn("i").I[0] != &src.MustColumn("i").I[0] ||
		&view.MustColumn("f").F[0] != &src.MustColumn("f").F[0] ||
		&view.MustColumn("s").S[0] != &src.MustColumn("s").S[0] {
		t.Fatal("a column whose kind stands must share the source vector")
	}
	for _, name := range src.Names() {
		if !view.MustColumn(name).IsShared() {
			t.Errorf("view column %q is not marked shared", name)
		}
		if src.MustColumn(name).IsShared() {
			t.Errorf("source column %q was marked: the view must not write to its source", name)
		}
	}
	if err := view.Append(view.Clone()); err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 4 || src.NumRows() != 2 || src.MustColumn("i").I[1] != 2 {
		t.Errorf("growing the view reached the source: view %d rows, source %d rows", view.NumRows(), src.NumRows())
	}
}

// The three inputs where the text path lost information, and what the view
// does instead (see CanonicalView).
func TestCanonicalViewWhereTextWasLossy(t *testing.T) {
	blank := MustFromColumns(NewString("s", []string{"a", "", "b"}))
	if back := csvRoundTrip(t, blank); back.NumRows() != 2 {
		t.Errorf("text path kept %d rows of a one-column frame with a blank cell; this test documents 2", back.NumRows())
	}
	if view := blank.CanonicalView(); view.NumRows() != 3 || view.MustColumn("s").S[1] != "" {
		t.Errorf("view dropped the blank row: %v", view.MustColumn("s").S)
	}

	crlf := MustFromColumns(NewString("s", []string{"a\r\nb"}), NewInt("i", []int64{1}))
	if back := csvRoundTrip(t, crlf); back.MustColumn("s").S[0] != "a\nb" {
		t.Errorf("text path returned %q for a CR LF cell; this test documents \"a\\nb\"", back.MustColumn("s").S[0])
	}
	if view := crlf.CanonicalView(); view.MustColumn("s").S[0] != "a\r\nb" {
		t.Errorf("view changed the CR LF cell to %q", view.MustColumn("s").S[0])
	}

	var buf bytes.Buffer
	if err := New().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSV(&buf); err == nil {
		t.Error("text path read a frame with no columns; this test documents an error")
	}
	if view := New().CanonicalView(); view.NumCols() != 0 || view.NumRows() != 0 {
		t.Errorf("view of the empty frame is %dx%d", view.NumRows(), view.NumCols())
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	const rows = 5000
	tags, mass, name := make([]int64, rows), make([]float64, rows), make([]string, rows)
	for i := range tags {
		tags[i], mass[i], name[i] = int64(i), 1e10*float64(i)+0.5, "halo"
	}
	f := MustFromColumns(NewInt("tag", tags), NewFloat("mass", mass), NewFloat("r", mass), NewString("name", name))
	for _, enc := range []struct {
		name  string
		write func(*Frame, io.Writer) error
	}{{"append", (*Frame).WriteCSV}, {"encoding_csv", referenceWriteCSV}} {
		b.Run(enc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.write(f, &buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}
