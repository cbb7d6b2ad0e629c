package dataframe

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Frame {
	return MustFromColumns(
		NewInt("fof_halo_tag", []int64{10, 11, 12, 13, 14}),
		NewFloat("fof_halo_mass", []float64{5.5, 3.5, 9.5, 1.5, 7.5}),
		NewString("sim", []string{"s0", "s1", "s0", "s1", "s0"}),
	)
}

func TestFromColumnsValidation(t *testing.T) {
	_, err := FromColumns(
		NewInt("a", []int64{1, 2}),
		NewInt("a", []int64{3, 4}),
	)
	if err == nil {
		t.Fatal("expected duplicate-name error")
	}
	_, err = FromColumns(
		NewInt("a", []int64{1, 2}),
		NewInt("b", []int64{3}),
	)
	if err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestColumnAccessors(t *testing.T) {
	f := sample()
	c := f.MustColumn("fof_halo_mass")
	if got := c.FloatAt(2); got != 9.5 {
		t.Errorf("FloatAt = %v, want 9.5", got)
	}
	if got := f.MustColumn("fof_halo_tag").IntAt(0); got != 10 {
		t.Errorf("IntAt = %v, want 10", got)
	}
	if got := f.MustColumn("sim").StringAt(1); got != "s1" {
		t.Errorf("StringAt = %v, want s1", got)
	}
	if got := f.MustColumn("fof_halo_tag").FloatAt(4); got != 14 {
		t.Errorf("int FloatAt = %v, want 14", got)
	}
}

func TestColumnErrorIsKeyErrorShaped(t *testing.T) {
	f := sample()
	_, err := f.Column("halo_mass")
	var ce *ColumnError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ColumnError, got %T", err)
	}
	if !strings.Contains(err.Error(), "KeyError") {
		t.Errorf("error %q should contain KeyError marker", err)
	}
	if !strings.Contains(err.Error(), "fof_halo_mass") {
		t.Errorf("error %q should list available columns", err)
	}
}

func TestSelectAndDrop(t *testing.T) {
	f := sample()
	sel, err := f.Select("sim", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Names(); !reflect.DeepEqual(got, []string{"sim", "fof_halo_mass"}) {
		t.Errorf("Select names = %v", got)
	}
	if _, err := f.Select("nope"); err == nil {
		t.Error("Select unknown column should fail")
	}
	d := f.Drop("sim", "missing")
	if d.Has("sim") || d.NumCols() != 2 {
		t.Errorf("Drop failed: %v", d.Names())
	}
}

func TestFilterHeadSlice(t *testing.T) {
	f := sample()
	mass := f.MustColumn("fof_halo_mass")
	big := f.Filter(func(i int) bool { return mass.F[i] > 4.0 })
	if big.NumRows() != 3 {
		t.Errorf("Filter rows = %d, want 3", big.NumRows())
	}
	if h := f.Head(2); h.NumRows() != 2 {
		t.Errorf("Head rows = %d", h.NumRows())
	}
	if h := f.Head(100); h.NumRows() != 5 {
		t.Errorf("Head overflow rows = %d", h.NumRows())
	}
	if s := f.Slice(1, 3); s.NumRows() != 2 || s.MustColumn("fof_halo_tag").I[0] != 11 {
		t.Errorf("Slice wrong: %v", s)
	}
}

func TestSortBy(t *testing.T) {
	f := sample()
	sorted, err := f.SortBy(SortKey{Col: "fof_halo_mass", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	got := sorted.MustColumn("fof_halo_mass").F
	want := []float64{9.5, 7.5, 5.5, 3.5, 1.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted = %v, want %v", got, want)
	}
	// Multi-key: sim asc then mass desc.
	sorted, err = f.SortBy(SortKey{Col: "sim"}, SortKey{Col: "fof_halo_mass", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if sims := sorted.MustColumn("sim").S; sims[0] != "s0" || sims[3] != "s1" {
		t.Errorf("multi-key sims = %v", sims)
	}
	if m := sorted.MustColumn("fof_halo_mass").F; m[0] != 9.5 || m[1] != 7.5 {
		t.Errorf("multi-key masses = %v", m)
	}
}

func TestSortNaNLast(t *testing.T) {
	f := MustFromColumns(NewFloat("x", []float64{3, math.NaN(), 1}))
	s, err := f.SortBy(SortKey{Col: "x"})
	if err != nil {
		t.Fatal(err)
	}
	got := s.MustColumn("x").F
	if got[0] != 1 || got[1] != 3 || !math.IsNaN(got[2]) {
		t.Errorf("NaN ordering = %v", got)
	}
}

func TestAppend(t *testing.T) {
	a := sample()
	b := sample()
	if err := a.Append(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 10 {
		t.Errorf("rows after append = %d", a.NumRows())
	}
	bad := MustFromColumns(NewInt("x", []int64{1}))
	if err := a.Append(bad); err == nil {
		t.Error("append with schema mismatch should fail")
	}
}

func TestGroupBy(t *testing.T) {
	f := sample()
	g, err := f.GroupBy([]string{"sim"}, []Agg{
		{Col: "fof_halo_mass", Op: Mean, As: "mean_mass"},
		{Col: "fof_halo_mass", Op: Max},
		{Op: Count, As: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", g.NumRows())
	}
	// s0 rows: masses 5.5, 9.5, 7.5 -> mean 7.5, max 9.5, count 3.
	if m := g.MustColumn("mean_mass").F[0]; m != 7.5 {
		t.Errorf("mean s0 = %v, want 7.5", m)
	}
	if m := g.MustColumn("max_fof_halo_mass").F[0]; m != 9.5 {
		t.Errorf("max s0 = %v, want 9.5", m)
	}
	if n := g.MustColumn("n").I[0]; n != 3 {
		t.Errorf("count s0 = %v, want 3", n)
	}
	if _, err := f.GroupBy([]string{"nope"}, nil); err == nil {
		t.Error("groupby unknown key should fail")
	}
}

func TestGroupByStdMedianFirst(t *testing.T) {
	f := MustFromColumns(
		NewString("g", []string{"a", "a", "a", "a"}),
		NewFloat("v", []float64{2, 4, 4, 6}),
	)
	g, err := f.GroupBy([]string{"g"}, []Agg{
		{Col: "v", Op: Std, As: "s"},
		{Col: "v", Op: Median, As: "med"},
		{Col: "v", Op: First, As: "f"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.MustColumn("s").F[0]; math.Abs(s-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v, want sqrt(2)", s)
	}
	if med := g.MustColumn("med").F[0]; med != 4 {
		t.Errorf("median = %v, want 4", med)
	}
	if fv := g.MustColumn("f").F[0]; fv != 2 {
		t.Errorf("first = %v, want 2", fv)
	}
}

func TestParseAggOp(t *testing.T) {
	for name, want := range map[string]AggOp{
		"sum": Sum, "AVG": Mean, "mean": Mean, "min": Min, "max": Max,
		"count": Count, "std": Std, "first": First, "median": Median,
	} {
		got, err := ParseAggOp(name)
		if err != nil || got != want {
			t.Errorf("ParseAggOp(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAggOp("mode"); err == nil {
		t.Error("unknown agg should fail")
	}
}

func TestJoinInner(t *testing.T) {
	halos := MustFromColumns(
		NewInt("fof_halo_tag", []int64{1, 2, 3}),
		NewFloat("fof_halo_mass", []float64{100, 200, 300}),
	)
	gals := MustFromColumns(
		NewInt("fof_halo_tag", []int64{2, 2, 3, 9}),
		NewFloat("gal_stellar_mass", []float64{1, 2, 3, 4}),
	)
	j, err := Join(halos, gals, "fof_halo_tag", Inner)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 3 {
		t.Fatalf("inner join rows = %d, want 3", j.NumRows())
	}
	if m := j.MustColumn("fof_halo_mass").F; m[0] != 200 || m[1] != 200 || m[2] != 300 {
		t.Errorf("join masses = %v", m)
	}
}

func TestJoinLeftAndCollision(t *testing.T) {
	l := MustFromColumns(
		NewInt("k", []int64{1, 2}),
		NewFloat("v", []float64{10, 20}),
	)
	r := MustFromColumns(
		NewInt("k", []int64{2}),
		NewFloat("v", []float64{99}),
	)
	j, err := Join(l, r, "k", Left)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("left join rows = %d", j.NumRows())
	}
	vr := j.MustColumn("v_right").F
	if !math.IsNaN(vr[0]) || vr[1] != 99 {
		t.Errorf("v_right = %v", vr)
	}
	if _, err := Join(l, MustFromColumns(NewString("k", []string{"x"})), "k", Inner); err == nil {
		t.Error("kind-mismatched join key should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := sample()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(f, back) {
		t.Errorf("round trip mismatch:\n%v\nvs\n%v", f, back)
	}
}

func TestReadCSVTypeInference(t *testing.T) {
	in := "a,b,c\n1,1.5,x\n2,2.5,y\n"
	f, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.MustColumn("a").Kind != Int || f.MustColumn("b").Kind != Float || f.MustColumn("c").Kind != String {
		t.Errorf("kinds = %v %v %v", f.MustColumn("a").Kind, f.MustColumn("b").Kind, f.MustColumn("c").Kind)
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty csv should fail")
	}
}

func TestRenameAndClone(t *testing.T) {
	f := sample()
	r, err := f.Rename("sim", "simulation")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has("simulation") || r.Has("sim") {
		t.Errorf("rename names = %v", r.Names())
	}
	if !f.Has("sim") {
		t.Error("rename mutated original")
	}
	c := f.Clone()
	c.MustColumn("fof_halo_mass").F[0] = -1
	if f.MustColumn("fof_halo_mass").F[0] == -1 {
		t.Error("clone shares storage")
	}
}

func TestStringRendering(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "fof_halo_tag") || !strings.Contains(s, "s1") {
		t.Errorf("String() = %q", s)
	}
	big := MustFromColumns(NewInt("x", make([]int64, 50)))
	if !strings.Contains(big.String(), "50 rows total") {
		t.Error("String() should note truncation")
	}
}

// randomFrame builds a deterministic pseudo-random frame for property tests.
func randomFrame(rng *rand.Rand, rows int) *Frame {
	fv := make([]float64, rows)
	iv := make([]int64, rows)
	sv := make([]string, rows)
	for i := 0; i < rows; i++ {
		fv[i] = rng.NormFloat64() * 100
		iv[i] = rng.Int63n(1000)
		sv[i] = string(rune('a' + rng.Intn(5)))
	}
	return MustFromColumns(NewFloat("f", fv), NewInt("i", iv), NewString("s", sv))
}

func TestQuickCSVRoundTrip(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFrame(rng, int(n%64)+1)
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		// Type inference may narrow float column to int when all values
		// happen to be integral; compare cell-by-cell as floats/strings.
		if back.NumRows() != f.NumRows() || back.NumCols() != f.NumCols() {
			return false
		}
		for j := 0; j < f.NumCols(); j++ {
			a, b := f.ColumnAt(j), back.ColumnAt(j)
			for r := 0; r < f.NumRows(); r++ {
				if a.StringAt(r) != b.StringAt(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickSortIsPermutationAndOrdered checks SortBy against the
// reference sort (refSortBy) on random frames of edge values, under every
// key list of keySets in every direction: the same rows in the same order,
// ties included.
func TestQuickSortIsPermutationAndOrdered(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		f := randomEdgeFrame(rand.New(rand.NewSource(seed)), int(n%64)+1)
		if err := checkRowKernels(f); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupCountsSumToRows checks GroupBy's groups against the
// reference text-key grouping (refGroup): the same groups, in the same
// order, with counts that sum to the rows.
func TestQuickGroupCountsSumToRows(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		f := randomEdgeFrame(rand.New(rand.NewSource(seed)), int(n%64)+1)
		g, err := f.GroupBy([]string{"s", "f"}, []Agg{{Op: Count, As: "n"}})
		if err != nil {
			return false
		}
		_, first := refGroup(f.NumRows(), f.MustColumn("s"), f.MustColumn("f"))
		if g.NumRows() != len(first) {
			return false
		}
		var total int64
		for gi, c := range g.MustColumn("n").I {
			total += c
			if g.MustColumn("s").S[gi] != f.MustColumn("s").S[first[gi]] {
				return false
			}
		}
		return total == int64(f.NumRows())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcat(t *testing.T) {
	mk := func(base int64) *Frame {
		return MustFromColumns(
			NewInt("i", []int64{base, base + 1}),
			NewFloat("f", []float64{float64(base), float64(base) + 0.5}),
			NewString("s", []string{"a", "b"}),
		)
	}
	a, b, c := mk(0), mk(10), mk(20)
	out, err := Concat(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 6 || out.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", out.NumRows(), out.NumCols())
	}
	wantI := []int64{0, 1, 10, 11, 20, 21}
	for r, w := range wantI {
		if got := out.MustColumn("i").I[r]; got != w {
			t.Fatalf("row %d: got %d want %d", r, got, w)
		}
	}
	// Inputs are untouched and not aliased: mutating the output must not
	// reach the sources.
	out.MustColumn("i").I[0] = 999
	if a.MustColumn("i").I[0] != 0 {
		t.Fatal("Concat aliased an input vector")
	}
	if a.NumRows() != 2 || b.NumRows() != 2 {
		t.Fatal("Concat mutated an input")
	}

	// Empty and single-frame cases.
	empty, err := Concat()
	if err != nil || empty.NumRows() != 0 || empty.NumCols() != 0 {
		t.Fatalf("Concat() = %v %v", empty, err)
	}
	one, err := Concat(a)
	if err != nil || one.NumRows() != 2 {
		t.Fatalf("Concat(a) = %v %v", one, err)
	}

	// Schema mismatches fail.
	if _, err := Concat(a, MustFromColumns(NewInt("x", []int64{1}))); err == nil {
		t.Fatal("want column-count mismatch error")
	}
	bad := MustFromColumns(
		NewInt("i", []int64{1}),
		NewInt("f", []int64{1}), // kind differs
		NewString("s", []string{"a"}),
	)
	if _, err := Concat(a, bad); err == nil {
		t.Fatal("want kind mismatch error")
	}
}
