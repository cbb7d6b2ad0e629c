package dataframe

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// memoEdgeFloats are the values where shortest float printing changes
// shape: signed zero and infinities, NaN, the smallest subnormal, the
// switch to an exponent at 1e21 and at 1e6, the integers around 2^53
// where float64 stops being exact, and the longest text (24 characters).
var memoEdgeFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 1e21, 999999, -999999, 1e6, -1e6, 0.999999, -0.999999,
	1 << 53, 1<<53 - 1, 1<<53 + 2, -(1<<53 + 2), math.MaxFloat64, 1.0 / 3,
	-0x1p-1022, 7,
}

// Every cell length from 1 to 24 characters packs and unpacks intact, at
// either parity of its start in the memo, and a memo of cells that all
// format again (NaN, ±Inf) writes them.
func TestCellMemoPacking(t *testing.T) {
	var vals []float64
	for digits := 1; digits <= 17; digits++ {
		v, _ := strconv.ParseFloat("-1."+strings.Repeat("3", digits-1)+"e-100", 64)
		vals = append(vals, v, -v, v*1e100, 1) // odd and even starts
	}
	vals = append(vals, -0x1p-1022)
	if got := len(strconv.FormatFloat(vals[len(vals)-1], 'g', -1, 64)); got != 24 {
		t.Fatalf("longest text is %d characters", got)
	}
	assertMemoCSV(t, MustFromColumns(memoColumn("p", vals)))
	assertMemoCSV(t, MustFromColumns(memoColumn("s", []float64{math.NaN(), math.Inf(-1), math.Inf(1)})))
}

// memoColumn returns a Float column over vals carrying a fresh memo.
func memoColumn(name string, vals []float64) *Column {
	return NewFloat(name, vals).SetCellMemo(NewCellMemo(nil))
}

// csvBytes writes f and fails the test on an error.
func csvBytes(t *testing.T, f *Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertMemoCSV checks that f, whose Float columns may copy memoised text,
// writes the bytes encoding/csv writes for its cells, on the write that
// builds the memos and on the one that copies them.
func assertMemoCSV(t *testing.T, f *Frame) {
	t.Helper()
	var want bytes.Buffer
	if err := referenceWriteCSV(f, &want); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if got := csvBytes(t, f); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("pass %d: memoised WriteCSV\n%q\nwant\n%q", pass, got, want.Bytes())
		}
	}
}

// splitConcat cuts vals at the given row counts into parts, memoising the
// parts whose bit is set in memoMask (and building the memo first when its
// bit is set in builtMask), and concatenates them.
func splitConcat(t *testing.T, vals []float64, sizes []int, memoMask, builtMask uint) *Column {
	t.Helper()
	parts := make([]*Column, len(sizes))
	off := 0
	for i, n := range sizes {
		c := NewFloat("x", vals[off:off+n])
		if memoMask&(1<<i) != 0 {
			c.SetCellMemo(NewCellMemo(nil))
			if builtMask&(1<<i) != 0 {
				csvBytes(t, MustFromColumns(c))
			}
		}
		parts[i] = c
		off += n
	}
	return ConcatColumn("x", parts...)
}

// compositions calls fn with every way to cut n rows into 1 to maxParts
// non-empty consecutive parts.
func compositions(n, maxParts int, fn func(sizes []int)) {
	var rec func(left int, sizes []int)
	rec = func(left int, sizes []int) {
		if left == 0 {
			fn(sizes)
			return
		}
		if len(sizes) == maxParts {
			return
		}
		for k := 1; k <= left; k++ {
			rec(left-k, append(sizes, k))
		}
	}
	rec(n, nil)
}

// TestWriteCSVMemoEdgeCases is exhaustive over memoEdgeFloats: the whole
// column, then every cut of an 8-cell window into 1–4 parts under every
// choice of memoised and prebuilt parts, beside an Int column.
func TestWriteCSVMemoEdgeCases(t *testing.T) {
	assertMemoCSV(t, MustFromColumns(memoColumn("edge", memoEdgeFloats)))
	for lo := 0; lo+8 <= len(memoEdgeFloats); lo += 4 {
		vals := memoEdgeFloats[lo : lo+8]
		tags := []int64{1, 2, 3, 4, 5, 6, 7, 8}
		compositions(len(vals), 4, func(sizes []int) {
			for memo := uint(0); memo < 1<<len(sizes); memo++ {
				for built := uint(0); built < 1<<len(sizes); built++ {
					if built&^memo != 0 {
						continue
					}
					c := splitConcat(t, vals, sizes, memo, built)
					assertMemoCSV(t, MustFromColumns(NewInt("tag", tags), c, NewFloat("raw", vals)))
				}
			}
		})
	}
}

// FuzzWriteCSVMemo: for any cells, memoised WriteCSV writes the bytes the
// formatting path writes, for a whole column and for a concatenation of 1–4
// parts; Head, Slice and Gather views format instead of reusing the memo.
func FuzzWriteCSVMemo(f *testing.F) {
	for i, x := range memoEdgeFloats {
		f.Add(x, memoEdgeFloats[(i+5)%len(memoEdgeFloats)], uint8(i), uint8(i*7))
	}
	f.Fuzz(func(t *testing.T, x, y float64, cut, mask uint8) {
		vals := []float64{x, y, -x, x * y, x / 3, math.Nextafter(x, y), y + 1, x - y, math.Trunc(x), 0}
		whole := memoColumn("v", vals)
		assertMemoCSV(t, MustFromColumns(whole))

		// Cut points from cut's bits give 1–4 parts.
		var sizes []int
		last := 0
		for i := 1; i < len(vals) && len(sizes) < 3; i++ {
			if cut&(1<<(i%8)) != 0 {
				sizes = append(sizes, i-last)
				last = i
			}
		}
		sizes = append(sizes, len(vals)-last)
		c := splitConcat(t, vals, sizes, uint(mask), uint(mask>>4))
		assertMemoCSV(t, MustFromColumns(c, NewInt("i", make([]int64, len(vals)))))

		fr := MustFromColumns(whole)
		for _, view := range []*Frame{fr.Head(len(vals) - 1), fr.Slice(1, len(vals)), fr.Gather([]int{3, 1, 2}), MustFromColumns(whole.Clone())} {
			if view.ColumnAt(0).HasCellText() {
				t.Fatal("a view over a new vector carries the memo")
			}
			assertMemoCSV(t, view)
		}
	})
}

// Verbs that make a new vector leave the memo behind; verbs that keep the
// vector keep it, and growth in place drops it.
func TestCellMemoFollowsTheVector(t *testing.T) {
	c := memoColumn("m", []float64{1.5, 2.5, 3.5})
	f := MustFromColumns(c, NewInt("k", []int64{3, 1, 2}))
	csvBytes(t, f)
	if !c.HasCellText() {
		t.Fatal("WriteCSV did not build the memo")
	}
	sorted, _ := f.SortBy(SortKey{Col: "k"})
	renamed, _ := f.Rename("m", "n")
	concat, _ := Concat(f, f)
	for name, col := range map[string]*Column{
		"Head":      f.Head(2).ColumnAt(0),
		"SortBy":    sorted.ColumnAt(0),
		"Filter":    f.Filter(func(int) bool { return true }).ColumnAt(0),
		"Clone":     c.Clone(),
		"Rename":    renamed.ColumnAt(0),
		"Canonical": f.CanonicalView().ColumnAt(0),
		"Concat":    concat.ColumnAt(0),
	} {
		keeps := name == "Rename" || name == "Canonical" || name == "Concat"
		if col.HasCellText() != keeps {
			t.Errorf("%s: HasCellText = %v, want %v", name, col.HasCellText(), keeps)
		}
	}
	grown := MustFromColumns(ConcatColumn("m", c))
	if err := grown.Append(MustFromColumns(NewFloat("m", []float64{4.5}))); err != nil {
		t.Fatal(err)
	}
	if grown.ColumnAt(0).HasCellText() {
		t.Error("in-place growth kept the memo ranges")
	}
	assertMemoCSV(t, grown)
}

// A discarded or dropped memo formats; Drop racing concurrent writers
// never changes a byte. Run under -race.
func TestCellMemoDropAndDiscard(t *testing.T) {
	vals := []float64{0.1, 0.2, 0.30000000000000004, 1e300}
	var charged int64
	discard := NewFloat("d", vals).SetCellMemo(NewCellMemo(func(n int64) bool { charged = n; return false }))
	assertMemoCSV(t, MustFromColumns(discard))
	if charged == 0 || discard.HasCellText() {
		t.Fatalf("discarded memo: charged %d, HasCellText %v", charged, discard.HasCellText())
	}

	m := NewCellMemo(nil)
	c := NewFloat("c", vals).SetCellMemo(m)
	f := MustFromColumns(c)
	want := csvBytes(t, MustFromColumns(c.Clone()))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b bytes.Buffer
				if err := f.WriteCSV(&b); err != nil || !bytes.Equal(b.Bytes(), want) {
					t.Errorf("concurrent WriteCSV = %q, %v", b.Bytes(), err)
					return
				}
			}
		}()
	}
	m.Drop()
	wg.Wait()
	if c.HasCellText() {
		t.Fatal("a dropped memo still holds text")
	}
	if got := csvBytes(t, f); !bytes.Equal(got, want) {
		t.Fatalf("after Drop: %q", got)
	}
}
