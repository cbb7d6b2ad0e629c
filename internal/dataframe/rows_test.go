package dataframe

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Edge values of each kind. Few distinct values per column, so sorts meet
// long tie runs and groups hold many rows.
var (
	edgeFloats = []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000abc), // two NaN bit patterns
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1, -1, 3, 1 << 53, 1e300, 5e-324,
	}
	edgeInts = []int64{
		math.MinInt64, math.MaxInt64, 0, -1, 1, 3, 1 << 53, 1<<53 + 1,
	}
	edgeStrings = []string{
		"", "x", "x\x1f", "\x1fy", "y", "3", "NaN", "a\x00", "1:x",
	}
)

// keyFrame decodes data into a frame of edge values, three bytes a row:
// columns f (Float), i (Int) and s (String), and id, the row number. A
// byte past its pool's end picks an ordinary value instead.
func keyFrame(data []byte) *Frame {
	n := len(data) / 3
	fv, iv, sv, id := make([]float64, n), make([]int64, n), make([]string, n), make([]int64, n)
	for r := 0; r < n; r++ {
		b := data[3*r : 3*r+3]
		if k := int(b[0]); k < len(edgeFloats) {
			fv[r] = edgeFloats[k]
		} else {
			fv[r] = float64(int8(b[0])) / 4
		}
		if k := int(b[1]); k < len(edgeInts) {
			iv[r] = edgeInts[k]
		} else {
			iv[r] = int64(int8(b[1]))
		}
		if k := int(b[2]); k < len(edgeStrings) {
			sv[r] = edgeStrings[k]
		} else {
			sv[r] = string(rune('a' + b[2]%4))
		}
		id[r] = int64(r)
	}
	return MustFromColumns(NewFloat("f", fv), NewInt("i", iv), NewString("s", sv), NewInt("id", id))
}

// randomEdgeFrame draws rows of edge values, mostly from the pools.
func randomEdgeFrame(rng *rand.Rand, rows int) *Frame {
	data := make([]byte, 3*rows)
	pools := []int{len(edgeFloats), len(edgeInts), len(edgeStrings)}
	for i := range data {
		if rng.Intn(4) == 0 {
			data[i] = byte(rng.Intn(256))
		} else {
			data[i] = byte(rng.Intn(pools[i%3]))
		}
	}
	return keyFrame(data)
}

// keySets are the key lists the differential checks sort and group by:
// single keys of each kind, multi-key and mixed-kind lists.
var keySets = [][]string{{"f"}, {"i"}, {"s"}, {"s", "i"}, {"f", "s"}, {"i", "f", "s"}, {"s", "f"}}

// checkRowKernels compares SortBy, Group, Distinct, GroupBy (its groups
// and every aggregate) and KeyIndex's cross-kind Find on f with the
// reference, and returns the first difference.
func checkRowKernels(f *Frame) error {
	for ki, names := range keySets {
		for mask := 0; mask < 1<<len(names); mask++ {
			keys := make([]SortKey, len(names))
			for j, n := range names {
				keys[j] = SortKey{Col: n, Desc: mask&(1<<j) != 0}
			}
			got, err := f.SortBy(keys...)
			if err != nil {
				return err
			}
			if want := refSortBy(f, keys...); !Equal(got, want) {
				return fmt.Errorf("SortBy(%v): rows %v, want %v", keys, got.MustColumn("id").I, want.MustColumn("id").I)
			}
		}
		cols := make([]*Column, len(names))
		for j, n := range names {
			cols[j] = f.MustColumn(n)
		}
		ids, first := Group(f.NumRows(), cols...)
		wantIDs, wantFirst := refGroup(f.NumRows(), cols...)
		if !sameInts(ids, wantIDs) || !sameInts(first, wantFirst) {
			return fmt.Errorf("Group(%v): ids %v first %v, want %v %v", names, ids, first, wantIDs, wantFirst)
		}
		g, err := f.GroupBy(names, []Agg{{Op: Count, As: "n"}, {Col: "id", Op: First, As: "first"}})
		if err != nil {
			return err
		}
		if got := g.MustColumn("first").I; !sameInts(int64s(got), wantFirst) {
			return fmt.Errorf("GroupBy(%v): first rows %v, want %v (key set %d)", names, got, wantFirst, ki)
		}
		if err := checkReduce(f, names, wantIDs, len(wantFirst)); err != nil {
			return err
		}
		sub, _ := f.Select(names...)
		if want := sub.Gather(wantFirst); !Equal(sub.Distinct(), want) {
			return fmt.Errorf("Distinct(%v) differs from the reference", names)
		}
	}
	for _, build := range []string{"f", "i", "s"} {
		for _, probe := range []string{"f", "i", "s"} {
			var x KeyIndex
			x.Add(nil, []*Column{f.MustColumn(build)}, nil)
			got := x.Find(nil, []*Column{f.MustColumn(probe)}, nil)
			if want := refFind(f.MustColumn(build), f.MustColumn(probe)); !sameInts(got, want) {
				return fmt.Errorf("Find(%s in %s) = %v, want %v", probe, build, got, want)
			}
		}
	}
	return nil
}

// checkReduce compares GroupBy's aggregates of every column of f under
// every operator with the reference over the reference groups ids: Count
// with the group's rows, First with its first row's value, and the rest
// with refReduce, bit for bit with every NaN alike.
func checkReduce(f *Frame, keys []string, ids []int, groups int) error {
	members := make([][]int, groups)
	for r, g := range ids {
		members[g] = append(members[g], r)
	}
	var aggs []Agg
	for _, col := range []string{"f", "i", "s", "id"} {
		for _, op := range []AggOp{Sum, Mean, Min, Max, Count, Std, First, Median} {
			aggs = append(aggs, Agg{Col: col, Op: op})
		}
	}
	out, err := f.GroupBy(keys, aggs)
	if err != nil {
		return err
	}
	for _, a := range aggs {
		src, got := f.MustColumn(a.Col), out.MustColumn(a.outName())
		for g, rows := range members {
			var want float64
			switch a.Op {
			case Count:
				if got.Kind != Int || got.I[g] != int64(len(rows)) {
					return fmt.Errorf("GroupBy(%v): %s of group %d is %v, want %d", keys, a.outName(), g, got.StringAt(g), len(rows))
				}
				continue
			case First:
				want = src.FloatAt(rows[0])
			default:
				want = refReduce(src, rows, a.Op)
			}
			if v := got.FloatAt(g); math.Float64bits(v) != math.Float64bits(want) && !(v != v && want != want) {
				return fmt.Errorf("GroupBy(%v): %s of group %d (rows %v) is %v, want %v", keys, a.outName(), g, rows, v, want)
			}
		}
	}
	return nil
}

func int64s(v []int64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// sameInts reports whether a and b hold the same values (nil and empty
// alike).
func sameInts(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestRowKernelsEdgeValues(t *testing.T) {
	// Every pool value in every column, twice, in two interleavings.
	var data []byte
	for rep := 0; rep < 2; rep++ {
		for k := 0; k < len(edgeStrings)*len(edgeFloats); k++ {
			data = append(data, byte(k%len(edgeFloats)), byte((k+rep)%len(edgeInts)), byte(k%len(edgeStrings)))
		}
	}
	if err := checkRowKernels(keyFrame(data)); err != nil {
		t.Fatal(err)
	}
	if err := checkRowKernels(keyFrame(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestCompositeKeysDoNotCollide pins the composite key: ("x\x1f", "y") and
// ("x", "\x1fy") were one group while keys joined their parts with '\x1f'.
func TestCompositeKeysDoNotCollide(t *testing.T) {
	f := MustFromColumns(NewString("a", []string{"x\x1f", "x"}), NewString("b", []string{"y", "\x1fy"}))
	g, err := f.GroupBy([]string{"a", "b"}, []Agg{{Op: Count, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 2 || f.Distinct().NumRows() != 2 {
		t.Fatalf("GroupBy gave %d groups and Distinct %d rows, want 2 and 2", g.NumRows(), f.Distinct().NumRows())
	}
}

// TestKeyIndexTextProbe pins the cross-kind probe: Int 3, Float 3 and
// String "3" are one key; -0 is not 0's text, and NaN is String "NaN"'s.
func TestKeyIndexTextProbe(t *testing.T) {
	var x KeyIndex
	x.Add(nil, []*Column{NewInt("k", []int64{3, 0, 1e6})}, nil)
	got := x.Find(nil, []*Column{NewFloat("k", []float64{3, math.Copysign(0, -1), 0, 1e6, 3.5})}, nil)
	if want := []int{0, -1, 1, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Float probe of Int keys = %v, want %v", got, want)
	}
	got = x.Find(nil, []*Column{NewString("k", []string{"3", "1000000", "03"})}, nil)
	if want := []int{0, 2, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("String probe = %v, want %v", got, want)
	}
	var y KeyIndex
	y.Add(nil, []*Column{NewFloat("k", []float64{math.NaN()})}, nil)
	if got := y.Find(nil, []*Column{NewString("k", []string{"NaN"})}, nil); got[0] != 0 {
		t.Fatalf("String NaN probe of Float NaN = %v, want group 0", got)
	}
}

func FuzzRowKernels(f *testing.F) {
	for k := 0; k < len(edgeStrings); k++ {
		f.Add([]byte{byte(k), byte(k), byte(k), 0, 1, byte(len(edgeStrings) - 1 - k), 1, 0, byte(k)})
	}
	f.Add([]byte{0, 0, 2, 1, 1, 3, 2, 2, 2, 3, 3, 2, 4, 4, 1, 5, 5, 1})
	f.Add([]byte{2, 6, 0, 3, 7, 0, 2, 6, 0, 0, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			return
		}
		if err := checkRowKernels(keyFrame(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// benchFrame is n shuffled rows shaped like a halo table: a Float mass, an
// Int count, an Int tag of 200 values and a String sim of 8.
func benchFrame(n int) *Frame {
	rng := rand.New(rand.NewSource(1))
	mass, count, tag, sim := make([]float64, n), make([]int64, n), make([]int64, n), make([]string, n)
	for r := range mass {
		mass[r] = math.Exp(rng.NormFloat64()) * 1e12
		count[r] = 10 + rng.Int63n(5000)
		tag[r] = 1_000_000 + rng.Int63n(200)
		sim[r] = fmt.Sprintf("sim_%d", rng.Intn(8))
	}
	return MustFromColumns(NewFloat("mass", mass), NewInt("count", count), NewInt("tag", tag), NewString("sim", sim))
}

func BenchmarkSortBy(b *testing.B) {
	f := benchFrame(50_000)
	for _, bc := range []struct {
		name string
		keys []SortKey
	}{
		{"float", []SortKey{{Col: "mass", Desc: true}}},
		{"int", []SortKey{{Col: "count", Desc: true}}},
		{"string_int", []SortKey{{Col: "sim"}, {Col: "count", Desc: true}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.SortBy(bc.keys...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGroupBy(b *testing.B) {
	f := benchFrame(50_000)
	meanMax := []Agg{{Col: "mass", Op: Mean, As: "mean_mass"}, {Col: "count", Op: Max, As: "max_count"}}
	sumStdMedian := []Agg{{Col: "mass", Op: Sum}, {Col: "mass", Op: Std}, {Col: "mass", Op: Median}}
	for _, bc := range []struct {
		name string
		keys []string
		aggs []Agg
	}{
		{"int", []string{"tag"}, meanMax},
		{"string", []string{"sim"}, meanMax},
		{"string_int", []string{"sim", "tag"}, meanMax},
		{"string/sum_std_median", []string{"sim"}, sumStdMedian},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.GroupBy(bc.keys, bc.aggs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
