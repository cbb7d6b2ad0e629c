package sqldb

import (
	"os"
	"path/filepath"
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

// TestStagedBulkAppendZeroCopyAllocs proves ingestion into a staged DB
// allocates O(columns), not O(cells): quadrupling the row count must not
// change the allocation count of BulkAppend.
func TestStagedBulkAppendZeroCopyAllocs(t *testing.T) {
	measure := func(rows int) float64 {
		db, err := CreateStaged(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
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
	db, err := CreateStaged(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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

// TestStagedFlushPersists: a staged DB touches disk only at Flush — it
// does not even create its directory before — after which a fresh Open
// serves identical data.
func TestStagedFlushPersists(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db", "s1")
	db, err := CreateStaged(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BulkAppend("t", stagedFrame(8, 0), stagedFrame(8, 50)); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkAppend("t", stagedFrame(8, 0), stagedFrame(8, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Dir(dir)); !os.IsNotExist(err) {
		t.Fatalf("staged DB created its directory before Flush: %v", err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("staged DB must not be openable before Flush")
	}
	want, err := db.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if db.SizeBytes() <= 0 {
		t.Fatal("staged SizeBytes must estimate encoded size")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if !dataframe.Equal(want, got) {
		t.Fatalf("flushed table differs:\n%v\nvs\n%v", got, want)
	}
}

// TestStagedQueriesMatchDurable: the staged fast path must be
// semantically invisible — identical query results to a durable DB.
func TestStagedQueriesMatchDurable(t *testing.T) {
	frames := []*dataframe.Frame{stagedFrame(16, 0), stagedFrame(16, 8)}
	staged, err := CreateStaged(filepath.Join(t.TempDir(), "staged"))
	if err != nil {
		t.Fatal(err)
	}
	durable, err := Create(filepath.Join(t.TempDir(), "durable"))
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{staged, durable} {
		if err := db.BulkAppend("t", frames...); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT * FROM t",
		"SELECT tag, mass FROM t WHERE mass > 10 ORDER BY mass DESC LIMIT 5",
		"SELECT COUNT(*) AS n, AVG(mass) AS m FROM t",
	} {
		a, err := staged.Query(sql)
		if err != nil {
			t.Fatalf("staged %q: %v", sql, err)
		}
		b, err := durable.Query(sql)
		if err != nil {
			t.Fatalf("durable %q: %v", sql, err)
		}
		if !dataframe.Equal(a, b) {
			t.Fatalf("%q: staged and durable disagree:\n%v\nvs\n%v", sql, a, b)
		}
	}
	// Scan accounting still prunes: a one-column query scans fewer bytes
	// than SELECT * on the resident path too.
	before := staged.BytesScanned()
	if _, err := staged.Query("SELECT tag FROM t"); err != nil {
		t.Fatal(err)
	}
	narrow := staged.BytesScanned() - before
	before = staged.BytesScanned()
	if _, err := staged.Query("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	if wide := staged.BytesScanned() - before; narrow >= wide {
		t.Errorf("resident scan accounting must prune: narrow %d >= wide %d", narrow, wide)
	}
}
