package sqldb

import (
	"bytes"
	"testing"

	"infera/internal/dataframe"
)

func stagedFrame(rows int, base float64) *dataframe.Frame {
	tags := make([]int64, rows)
	mass := make([]float64, rows)
	for i := range tags {
		tags[i] = int64(i)
		mass[i] = base + float64(i)
	}
	return dataframe.MustFromColumns(
		dataframe.NewInt("tag", tags),
		dataframe.NewFloat("mass", mass),
	)
}

// TestStagedBulkAppendZeroCopyAllocs proves ingestion into a DB
// allocates O(columns), not O(cells): quadrupling the row count must not
// change the allocation count of BulkAppend.
func TestStagedBulkAppendZeroCopyAllocs(t *testing.T) {
	measure := func(rows int) float64 {
		db := New()
		frames := []*dataframe.Frame{stagedFrame(rows, 0), stagedFrame(rows, 1), stagedFrame(rows, 2)}
		i := 0
		return testing.AllocsPerRun(50, func() {
			name := "t" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
			i++
			if err := db.BulkAppend(name, frames...); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(100)
	large := measure(400_000)
	if small > 200 {
		t.Errorf("staged BulkAppend allocates too much: %.0f allocs for 3 frames", small)
	}
	// O(cells) ingestion of 400k rows would show thousands of times more
	// allocations (or at least the big backing arrays); O(columns) is flat.
	if large > small*2 {
		t.Errorf("allocations must not scale with cells: %.0f (100 rows) -> %.0f (400k rows)", small, large)
	}
}

// TestStagedReadTableSharesResident: reads serve fresh shells over the
// resident vectors without copying, and downstream growth on a returned
// frame is copy-on-write — it never corrupts the stored table.
func TestStagedReadTableSharesResident(t *testing.T) {
	db := New()
	if err := db.BulkAppend("t", stagedFrame(4, 0), stagedFrame(4, 100)); err != nil {
		t.Fatal(err)
	}
	a, err := db.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 8 {
		t.Fatalf("rows = %d, want 8", a.NumRows())
	}
	// The resident vectors are shared: the same column object backs every
	// read shell, and it is marked for copy-on-write.
	b, err := db.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if a.MustColumn("tag") != b.MustColumn("tag") {
		t.Fatal("reads must share the resident vector, not copy it")
	}
	if !a.MustColumn("tag").IsShared() {
		t.Fatal("resident columns must be marked shared")
	}
	// Shells are independent; growing one leaves the table intact.
	if err := a.Append(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 16 {
		t.Fatalf("grown shell rows = %d", a.NumRows())
	}
	c, err := db.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 8 || b.NumRows() != 8 {
		t.Fatalf("COW violated: table rows = %d, sibling shell rows = %d", c.NumRows(), b.NumRows())
	}
}

// TestProjectionCopiesSegments: a statement that only names columns is
// one copy of each segment's vectors, of one segment too, so no result
// aliases a staged vector; it answers as the reference engine does and
// keeps the segments' origins, so it has an origin key, the same for a
// second run of the statement and another for another output name.
func TestProjectionCopiesSegments(t *testing.T) {
	for _, segs := range []int{1, 3} {
		db := New()
		var frames []*dataframe.Frame
		for i := 0; i < segs; i++ {
			f := stagedFrame(5, float64(100*i)+0.25)
			for i := 0; i < f.NumCols(); i++ {
				f.ColumnAt(i).SetOrigin()
			}
			frames = append(frames, f)
		}
		if err := db.BulkAppend("t", frames...); err != nil {
			t.Fatal(err)
		}
		const sql = "SELECT mass AS m, tag, mass FROM t"
		got, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryBackend(sql, BackendTreeWalk)
		if err != nil {
			t.Fatal(err)
		}
		if !dataframe.Equal(got, want) {
			t.Fatalf("%d segments: projection\n%v\nreference\n%v", segs, got, want)
		}
		m := got.MustColumn("m")
		for _, f := range frames {
			src := f.MustColumn("mass").F
			if &m.F[0] == &src[0] || &got.MustColumn("mass").F[0] == &src[0] {
				t.Fatalf("%d segments: the result aliases a segment's vector", segs)
			}
		}
		key, ok := got.OriginKey()
		again, _ := db.Query(sql)
		renamed, _ := db.Query("SELECT mass AS n, tag, mass FROM t")
		if k, _ := again.OriginKey(); !ok || k != key {
			t.Fatalf("%d segments: a second run has another key", segs)
		}
		if k, _ := renamed.OriginKey(); k == key {
			t.Fatalf("%d segments: another output name kept the key", segs)
		}
		var first, copied bytes.Buffer
		if err := got.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		if err := want.Clone().WriteCSV(&copied); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), copied.Bytes()) {
			t.Fatalf("%d segments: CSV differs from a copy's", segs)
		}
	}
}
