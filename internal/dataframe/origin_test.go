package dataframe

import (
	"bytes"
	"math"
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

// csvBytes writes f and fails the test on an error.
func csvBytes(t *testing.T, f *Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertCSV checks that f writes the bytes encoding/csv writes for its
// cells and returns them.
func assertCSV(t *testing.T, f *Frame) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := referenceWriteCSV(f, &want); err != nil {
		t.Fatal(err)
	}
	got := csvBytes(t, f)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("WriteCSV\n%q\nwant\n%q", got, want.Bytes())
	}
	return got
}

// keyOf returns f's origin key, failing the test when it has none.
func keyOf(t *testing.T, f *Frame) string {
	t.Helper()
	k, ok := f.OriginKey()
	if !ok {
		t.Fatal("no origin key")
	}
	return k
}

// numberedParts cuts vals at the given row counts into parts, each its own
// vector, numbered (SetOrigin) when its bit is set in mask.
func numberedParts(vals []float64, sizes []int, mask uint) []*Column {
	parts := make([]*Column, len(sizes))
	off := 0
	for i, n := range sizes {
		parts[i] = NewFloat("x", append([]float64(nil), vals[off:off+n]...))
		if mask&(1<<i) != 0 {
			parts[i].SetOrigin()
		}
		off += n
	}
	return parts
}

// keyedFrame is the frame a projection of parts beside a constant tag
// column builds: both concatenated into new vectors.
func keyedFrame(parts []*Column, tag int64) *Frame {
	tags := make([]*Column, len(parts))
	for i, p := range parts {
		vals := make([]int64, p.Len())
		for j := range vals {
			vals[j] = tag
		}
		tags[i] = NewInt("tag", vals).SetConstOrigin()
	}
	return MustFromColumns(ConcatColumn("tag", tags...), ConcatColumn("x", parts...))
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

// TestWriteCSVMemoEdgeCases: OriginKey is a sound memo key for WriteCSV
// over memoEdgeFloats. For every cut of an 8-cell window into 1–4
// numbered parts, the concatenation writes what encoding/csv writes, a
// second concatenation of the same parts has its key, and no two cuts,
// nor the same cells in other vectors, share one.
func TestWriteCSVMemoEdgeCases(t *testing.T) {
	for lo := 0; lo+8 <= len(memoEdgeFloats); lo += 4 {
		vals := memoEdgeFloats[lo : lo+8]
		seen := map[string]bool{}
		compositions(len(vals), 4, func(sizes []int) {
			parts := numberedParts(vals, sizes, 1<<len(sizes)-1)
			f := keyedFrame(parts, int64(lo))
			first := assertCSV(t, f)
			k := keyOf(t, f)
			if seen[k] {
				t.Fatalf("cut %v: key already taken", sizes)
			}
			seen[k] = true
			again := keyedFrame(parts, int64(lo))
			if keyOf(t, again) != k || !bytes.Equal(csvBytes(t, again), first) {
				t.Fatalf("cut %v: a second concatenation has another key or other bytes", sizes)
			}
			if keyOf(t, keyedFrame(numberedParts(vals, sizes, 1<<len(sizes)-1), int64(lo))) == k {
				t.Fatalf("cut %v: other vectors share the key", sizes)
			}
		})
	}
	// A constant's text depends on its bits: -0 and 0 differ.
	zero := MustFromColumns(NewFloat("z", []float64{0, 0}).SetConstOrigin())
	negZero := MustFromColumns(NewFloat("z", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}).SetConstOrigin())
	if keyOf(t, zero) == keyOf(t, negZero) || bytes.Equal(assertCSV(t, zero), assertCSV(t, negZero)) {
		t.Fatal("0 and -0 constants share a key or their text")
	}
}

// FuzzWriteCSVMemo: OriginKey is a sound memo key for WriteCSV. For any
// cells cut into 1–4 parts beside a constant column, a concatenation of
// numbered parts writes what encoding/csv writes and shares its key with
// a second concatenation of the same parts only; another name or another
// constant changes the key. A part without an origin, and a Head, Slice,
// Gather or Clone of a numbered column, give no key.
func FuzzWriteCSVMemo(f *testing.F) {
	for i, x := range memoEdgeFloats {
		f.Add(x, memoEdgeFloats[(i+5)%len(memoEdgeFloats)], uint8(i), uint8(i*7))
	}
	f.Fuzz(func(t *testing.T, x, y float64, cut, mask uint8) {
		vals := []float64{x, y, -x, x * y, x / 3, math.Nextafter(x, y), y + 1, x - y, math.Trunc(x), 0}
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
		all := uint(1)<<len(sizes) - 1
		parts := numberedParts(vals, sizes, uint(mask)|all)
		fr := keyedFrame(parts, int64(cut))
		want := assertCSV(t, fr)
		k := keyOf(t, fr)
		if again := keyedFrame(parts, int64(cut)); keyOf(t, again) != k || !bytes.Equal(csvBytes(t, again), want) {
			t.Fatal("a second concatenation of the same parts has another key or other bytes")
		}
		renamed, _ := fr.Rename("x", "y")
		if keyOf(t, renamed) == k || keyOf(t, keyedFrame(parts, int64(cut)+1)) == k {
			t.Fatal("another name or another constant kept the key")
		}
		if mask&uint8(all) != uint8(all) {
			if _, ok := keyedFrame(numberedParts(vals, sizes, uint(mask)), 0).OriginKey(); ok {
				t.Fatal("a part without an origin gave a key")
			}
		}
		whole := MustFromColumns(NewFloat("v", vals).SetOrigin())
		for _, view := range []*Frame{whole.Head(len(vals) - 1), whole.Slice(1, len(vals)), whole.Gather([]int{3, 1, 2}), whole.Clone()} {
			if _, ok := view.OriginKey(); ok {
				t.Fatal("a view over a new vector carries the origin")
			}
			assertCSV(t, view)
		}
	})
}

// Verbs that make a new vector leave the origin behind; verbs that keep
// the vector keep it, and growth in place drops it.
func TestOriginFollowsTheVector(t *testing.T) {
	c := NewFloat("m", []float64{1.5, 2.5, 3.5}).SetOrigin()
	f := MustFromColumns(c, NewInt("k", []int64{3, 3, 3}).SetConstOrigin())
	keyOf(t, f)
	sorted, _ := f.SortBy(SortKey{Col: "k"})
	renamed, _ := f.Rename("m", "n")
	concat, _ := Concat(f, f)
	single, _ := Concat(f)
	for name, fr := range map[string]*Frame{
		"Head":      f.Head(2),
		"SortBy":    sorted,
		"Filter":    f.Filter(func(int) bool { return true }),
		"Clone":     f.Clone(),
		"Rename":    renamed,
		"Select":    must(f.Select("m")),
		"Canonical": f.CanonicalView(),
		"Concat":    concat,
		"Concat1":   single,
	} {
		_, has := fr.OriginKey()
		keeps := name != "Head" && name != "SortBy" && name != "Filter" && name != "Clone"
		if has != keeps {
			t.Errorf("%s: has a key %v, want %v", name, has, keeps)
		}
		assertCSV(t, fr)
	}
	if keyOf(t, concat) == keyOf(t, f) || keyOf(t, renamed) == keyOf(t, f) || keyOf(t, single) != keyOf(t, f) {
		t.Error("a concatenation or a rename kept the key, or a one-frame Concat moved it")
	}
	grown := MustFromColumns(ConcatColumn("m", c))
	if err := grown.Append(MustFromColumns(NewFloat("m", []float64{4.5}))); err != nil {
		t.Fatal(err)
	}
	if _, ok := grown.OriginKey(); ok {
		t.Error("in-place growth kept the origin")
	}
	assertCSV(t, grown)
}

func must(f *Frame, err error) *Frame {
	if err != nil {
		panic(err)
	}
	return f
}
