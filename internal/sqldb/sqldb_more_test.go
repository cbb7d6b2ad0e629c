package sqldb

import (
	"math"
	"strings"
	"testing"

	"infera/internal/dataframe"
)

// Additional coverage: expression corners, parser recovery, concurrency.

func TestArithmeticSemantics(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want float64
	}{
		{"SELECT 2 + 3 * 4 AS v FROM halos LIMIT 1", 14},
		{"SELECT (2 + 3) * 4 AS v FROM halos LIMIT 1", 20},
		{"SELECT -2 + 5 AS v FROM halos LIMIT 1", 3},
		{"SELECT 7 % 3 AS v FROM halos LIMIT 1", 1},
		{"SELECT 7 / 2 AS v FROM halos LIMIT 1", 3.5},
		{"SELECT ABS(-4) AS v FROM halos LIMIT 1", 4},
		{"SELECT POW(2, 10) AS v FROM halos LIMIT 1", 1024},
		{"SELECT FLOOR(2.7) + CEIL(2.1) AS v FROM halos LIMIT 1", 5},
		{"SELECT ROUND(2.5) AS v FROM halos LIMIT 1", 3},
		{"SELECT SQRT(16) AS v FROM halos LIMIT 1", 4},
		{"SELECT EXP(0) AS v FROM halos LIMIT 1", 1},
		{"SELECT LOG(EXP(1)) AS v FROM halos LIMIT 1", 1},
	}
	for _, c := range cases {
		f := query(t, db, c.sql)
		got := f.ColumnAt(0).FloatAt(0)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestIntegerArithmeticStaysInt(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_tag * 2 AS v FROM halos WHERE fof_halo_tag = 3")
	if f.ColumnAt(0).Kind != dataframe.Int {
		t.Errorf("int*int kind = %v", f.ColumnAt(0).Kind)
	}
	if f.MustColumn("v").I[0] != 6 {
		t.Errorf("v = %v", f.MustColumn("v").I[0])
	}
	// Division promotes to float.
	f = query(t, db, "SELECT fof_halo_tag / 2 AS v FROM halos WHERE fof_halo_tag = 3")
	if f.ColumnAt(0).Kind != dataframe.Float || f.MustColumn("v").F[0] != 1.5 {
		t.Errorf("division = %+v", f.ColumnAt(0))
	}
}

func TestModuloByZeroErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query("SELECT fof_halo_tag % 0 AS v FROM halos"); err == nil {
		t.Error("integer modulo by zero should fail")
	}
}

func TestStringComparisonsAndOrdering(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT note FROM halos WHERE note >= 'mid' ORDER BY note DESC LIMIT 2")
	got := f.MustColumn("note").S
	if got[0] != "small" || got[1] != "small" {
		t.Errorf("string ordering = %v", got)
	}
}

func TestImplicitAlias(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_mass m FROM halos LIMIT 1")
	if !f.Has("m") {
		t.Errorf("implicit alias missing: %v", f.Names())
	}
}

func TestMultipleOrderKeys(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT sim, fof_halo_tag FROM halos ORDER BY sim DESC, fof_halo_tag ASC")
	sims := f.MustColumn("sim").I
	tags := f.MustColumn("fof_halo_tag").I
	if sims[0] != 1 || tags[0] != 4 {
		t.Errorf("multi-key order: sims=%v tags=%v", sims, tags)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := testDB(t)
	// Group by a computed bucket.
	f := query(t, db, "SELECT FLOOR(fof_halo_mass / 1e14) AS bucket, COUNT(*) AS n FROM halos GROUP BY FLOOR(fof_halo_mass / 1e14) ORDER BY bucket")
	if f.NumRows() < 2 {
		t.Fatalf("buckets = %d", f.NumRows())
	}
	var total int64
	for _, n := range f.MustColumn("n").I {
		total += n
	}
	if total != 6 {
		t.Errorf("bucket counts sum to %d", total)
	}
}

func TestAggregateInsideExpression(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT MAX(fof_halo_mass) - MIN(fof_halo_mass) AS span FROM halos")
	if got := f.MustColumn("span").F[0]; got != 2e14-4e13 {
		t.Errorf("span = %v", got)
	}
}

func TestLimitZeroAndExactRows(t *testing.T) {
	db := testDB(t)
	if f := query(t, db, "SELECT * FROM halos LIMIT 0"); f.NumRows() != 0 {
		t.Errorf("LIMIT 0 rows = %d", f.NumRows())
	}
	if f := query(t, db, "SELECT * FROM halos LIMIT 100"); f.NumRows() != 6 {
		t.Errorf("LIMIT over-count rows = %d", f.NumRows())
	}
}

func TestDistinctOnExpression(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT DISTINCT sim * 10 AS s FROM halos ORDER BY s")
	if f.NumRows() != 2 || f.MustColumn("s").I[1] != 10 {
		t.Errorf("distinct expr = %v", f)
	}
}

func TestParserRejections(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT FROM halos",
		"SELECT * halos",
		"SELECT * FROM halos GROUP sim",
		"SELECT * FROM halos ORDER fof_halo_mass",
		"SELECT * FROM halos LIMIT -1",
		"SELECT * FROM halos LIMIT many",
		"SELECT a, FROM halos",
		"SELECT COUNT(* FROM halos",
		"SELECT * FROM halos WHERE a IN 1, 2",
		"SELECT * FROM halos WHERE a BETWEEN 1",
		"SELECT * FROM halos extra",
		"SELECT POW(1) FROM halos",
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	db := testDB(t)
	f := query(t, db, `SELECT "fof_halo_mass" FROM halos LIMIT 1`)
	if !f.Has("fof_halo_mass") {
		t.Errorf("quoted ident failed: %v", f.Names())
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := testDB(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			_, err := db.Query("SELECT sim, AVG(fof_halo_mass) AS m FROM halos GROUP BY sim")
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentWritesAndReads(t *testing.T) {
	db := New()
	f := dataframe.MustFromColumns(dataframe.NewInt("a", []int64{1}))
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			name := "t" + string(rune('a'+i))
			if err := db.CreateOrReplaceTable(name, f); err != nil {
				done <- err
				return
			}
			_, err := db.ReadTable(name)
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(db.Tables()) != 8 {
		t.Errorf("tables = %d", len(db.Tables()))
	}
}

func TestSyntaxErrorPositions(t *testing.T) {
	_, err := parseSelect("SELECT * FROM halos WHERE @")
	var se *SyntaxError
	if !asSyntax(err, &se) {
		t.Fatalf("want SyntaxError, got %v", err)
	}
	if se.Pos < 20 {
		t.Errorf("position = %d, should point into WHERE clause", se.Pos)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("message = %q", err)
	}
}

func asSyntax(err error, out **SyntaxError) bool {
	if e, ok := err.(*SyntaxError); ok {
		*out = e
		return true
	}
	return false
}

// One BulkAppend of k frames must equal a chain of k single-frame
// BulkAppend calls.
func TestBulkAppendMatchesAppendChain(t *testing.T) {
	mk := func(base int64) *dataframe.Frame {
		return dataframe.MustFromColumns(
			dataframe.NewInt("tag", []int64{base, base + 1}),
			dataframe.NewFloat("mass", []float64{float64(base), float64(base) + 0.5}),
		)
	}
	frames := []*dataframe.Frame{mk(0), mk(10), mk(20), mk(30)}

	chainDB := New()
	for _, f := range frames {
		if err := chainDB.BulkAppend("t", f); err != nil {
			t.Fatal(err)
		}
	}
	bulkDB := New()
	if err := bulkDB.BulkAppend("t", frames...); err != nil {
		t.Fatal(err)
	}
	want, err := chainDB.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := bulkDB.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if !dataframe.Equal(want, got) {
		t.Fatalf("bulk result differs from append chain:\n%v\nvs\n%v", got, want)
	}

	// Appending in bulk to an existing table extends it.
	if err := bulkDB.BulkAppend("t", mk(40), mk(50)); err != nil {
		t.Fatal(err)
	}
	ti, _ := bulkDB.Table("t")
	if ti.Rows != 12 {
		t.Fatalf("rows = %d, want 12", ti.Rows)
	}
	// No-op and mismatch cases.
	if err := bulkDB.BulkAppend("t"); err != nil {
		t.Fatal("empty BulkAppend must be a no-op")
	}
	bad := dataframe.MustFromColumns(dataframe.NewInt("x", []int64{1}))
	if err := bulkDB.BulkAppend("t", bad); err == nil {
		t.Fatal("want schema mismatch error")
	}
}

// TestAggregatesSkipNaN pins the one NaN rule of the group aggregates on
// both engines: NaN is skipped, an aggregate over no value but NaN (a
// group of NaNs, or no rows) is NaN, and COUNT counts rows. Group a holds
// only NaN; the engines once read its MIN as +Inf, its MAX as -Inf and its
// SUM, AVG and STDDEV as 0, b's AVG and STDDEV as 0.5 (the NaN counted in
// their divisor), and the SUM over no rows as 0.
func TestAggregatesSkipNaN(t *testing.T) {
	nan := math.NaN()
	db := New()
	f := dataframe.MustFromColumns(dataframe.NewString("g", []string{"a", "a", "b", "b"}),
		dataframe.NewFloat("v", []float64{nan, nan, 1, nan}))
	if err := db.BulkAppend("t", f.Slice(0, 3), f.Slice(3, 4)); err != nil {
		t.Fatal(err)
	}
	const items = "COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, " +
		"AVG(v) AS m, STDDEV(v) AS sd, MEDIAN(v) AS med FROM t"
	cases := []struct {
		sql  string
		want [][]float64 // per row: n, nv, s, lo, hi, m, sd, med
	}{
		{"SELECT g, " + items + " GROUP BY g", [][]float64{
			{2, 2, nan, nan, nan, nan, nan, nan},
			{2, 2, 1, 1, 1, 1, 0, 1},
		}},
		{"SELECT " + items + " WHERE 1 = 0", [][]float64{{0, 0, nan, nan, nan, nan, nan, nan}}},
		{"SELECT " + items + " WHERE g = 'a'", [][]float64{{2, 2, nan, nan, nan, nan, nan, nan}}},
	}
	names := []string{"n", "nv", "s", "lo", "hi", "m", "sd", "med"}
	for _, be := range []Backend{BackendVectorized, BackendTreeWalk} {
		for _, c := range cases {
			out, err := db.QueryBackend(c.sql, be)
			if err != nil {
				t.Fatalf("%s on %v: %v", c.sql, be, err)
			}
			if out.NumRows() != len(c.want) {
				t.Fatalf("%s on %v: %d rows, want %d", c.sql, be, out.NumRows(), len(c.want))
			}
			for r, want := range c.want {
				for i, name := range names {
					got := out.MustColumn(name).FloatAt(r)
					if got != want[i] && !(math.IsNaN(got) && math.IsNaN(want[i])) {
						t.Errorf("%s on %v: row %d %s = %v, want %v", c.sql, be, r, name, got, want[i])
					}
				}
			}
		}
	}
}
