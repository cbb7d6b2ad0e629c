package sqldb

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"infera/internal/dataframe"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	halos := dataframe.MustFromColumns(
		dataframe.NewInt("fof_halo_tag", []int64{1, 2, 3, 4, 5, 6}),
		dataframe.NewInt("sim", []int64{0, 0, 0, 1, 1, 1}),
		dataframe.NewInt("fof_halo_count", []int64{1000, 500, 250, 900, 450, 200}),
		dataframe.NewFloat("fof_halo_mass", []float64{2e14, 1e14, 5e13, 1.8e14, 9e13, 4e13}),
		dataframe.NewString("note", []string{"big", "mid", "small", "big", "mid", "small"}),
	)
	if err := db.CreateTable("halos", halos); err != nil {
		t.Fatal(err)
	}
	return db
}

func query(t *testing.T, db *DB, sql string) *dataframe.Frame {
	t.Helper()
	f, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return f
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT * FROM halos")
	if f.NumRows() != 6 || f.NumCols() != 5 {
		t.Errorf("shape = %dx%d", f.NumRows(), f.NumCols())
	}
}

func TestWhereAndProjection(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_tag, fof_halo_mass FROM halos WHERE sim = 0 AND fof_halo_mass > 6e13")
	if f.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", f.NumRows())
	}
	if tags := f.MustColumn("fof_halo_tag").I; tags[0] != 1 || tags[1] != 2 {
		t.Errorf("tags = %v", tags)
	}
	if f.NumCols() != 2 {
		t.Errorf("cols = %d", f.NumCols())
	}
}

func TestOrderLimitDesc(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_tag FROM halos ORDER BY fof_halo_mass DESC LIMIT 3")
	want := []int64{1, 4, 2}
	got := f.MustColumn("fof_halo_tag").I
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestComputedColumnsAndAlias(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_tag, fof_halo_mass / 1e14 AS mass14, LOG10(fof_halo_mass) AS lg FROM halos WHERE fof_halo_tag = 1")
	if v := f.MustColumn("mass14").F[0]; math.Abs(v-2) > 1e-12 {
		t.Errorf("mass14 = %v", v)
	}
	if v := f.MustColumn("lg").F[0]; math.Abs(v-math.Log10(2e14)) > 1e-12 {
		t.Errorf("lg = %v", v)
	}
}

func TestGlobalAggregates(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT COUNT(*) AS n, AVG(fof_halo_mass) AS avg_mass, MAX(fof_halo_count) AS maxc, MIN(fof_halo_count) AS minc, SUM(fof_halo_count) AS sumc FROM halos")
	if f.NumRows() != 1 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	if n := f.MustColumn("n").I[0]; n != 6 {
		t.Errorf("count = %d", n)
	}
	wantAvg := (2e14 + 1e14 + 5e13 + 1.8e14 + 9e13 + 4e13) / 6
	if v := f.MustColumn("avg_mass").F[0]; math.Abs(v-wantAvg) > 1 {
		t.Errorf("avg = %v, want %v", v, wantAvg)
	}
	if v := f.MustColumn("maxc").F[0]; v != 1000 {
		t.Errorf("max = %v", v)
	}
	if v := f.MustColumn("minc").F[0]; v != 200 {
		t.Errorf("min = %v", v)
	}
	if v := f.MustColumn("sumc").F[0]; v != 3300 {
		t.Errorf("sum = %v", v)
	}
}

func TestGroupBy(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT sim, COUNT(*) AS n, AVG(fof_halo_count) AS avg_count FROM halos GROUP BY sim ORDER BY sim")
	if f.NumRows() != 2 {
		t.Fatalf("groups = %d", f.NumRows())
	}
	if n := f.MustColumn("n").I; n[0] != 3 || n[1] != 3 {
		t.Errorf("counts = %v", n)
	}
	want0 := (1000.0 + 500 + 250) / 3
	if v := f.MustColumn("avg_count").F[0]; math.Abs(v-want0) > 1e-9 {
		t.Errorf("avg sim0 = %v, want %v", v, want0)
	}
}

func TestStddevMedian(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT STDDEV(fof_halo_count) AS s, MEDIAN(fof_halo_count) AS m FROM halos WHERE sim = 0")
	// counts: 1000, 500, 250 -> mean 583.33, median 500
	if m := f.MustColumn("m").F[0]; m != 500 {
		t.Errorf("median = %v", m)
	}
	mean := (1000.0 + 500 + 250) / 3
	variance := ((1000-mean)*(1000-mean) + (500-mean)*(500-mean) + (250-mean)*(250-mean)) / 3
	if s := f.MustColumn("s").F[0]; math.Abs(s-math.Sqrt(variance)) > 1e-9 {
		t.Errorf("stddev = %v, want %v", s, math.Sqrt(variance))
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT DISTINCT note FROM halos ORDER BY note")
	if f.NumRows() != 3 {
		t.Errorf("distinct rows = %d", f.NumRows())
	}
}

func TestInBetweenLikeNot(t *testing.T) {
	db := testDB(t)
	if f := query(t, db, "SELECT fof_halo_tag FROM halos WHERE fof_halo_tag IN (2, 4, 99)"); f.NumRows() != 2 {
		t.Errorf("IN rows = %d", f.NumRows())
	}
	if f := query(t, db, "SELECT fof_halo_tag FROM halos WHERE fof_halo_tag NOT IN (2, 4)"); f.NumRows() != 4 {
		t.Errorf("NOT IN rows = %d", f.NumRows())
	}
	if f := query(t, db, "SELECT fof_halo_tag FROM halos WHERE fof_halo_mass BETWEEN 5e13 AND 1.5e14"); f.NumRows() != 3 {
		t.Errorf("BETWEEN rows = %d", f.NumRows())
	}
	if f := query(t, db, "SELECT fof_halo_tag FROM halos WHERE note LIKE 'b%'"); f.NumRows() != 2 {
		t.Errorf("LIKE rows = %d", f.NumRows())
	}
	if f := query(t, db, "SELECT fof_halo_tag FROM halos WHERE NOT (sim = 0)"); f.NumRows() != 3 {
		t.Errorf("NOT rows = %d", f.NumRows())
	}
}

func TestOrderByComputedKey(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_tag, fof_halo_mass FROM halos ORDER BY fof_halo_mass / fof_halo_tag DESC LIMIT 1")
	if f.MustColumn("fof_halo_tag").I[0] != 1 {
		t.Errorf("computed order wrong: %v", f)
	}
	if f.NumCols() != 2 {
		t.Errorf("temporary order column leaked: %v", f.Names())
	}
}

func TestErrorsAreInformative(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELEC * FROM halos", "syntax error"},
		{"SELECT * FROM missing", "Catalog Error"},
		{"SELECT halo_mass FROM halos", "KeyError"},
		{"SELECT fof_halo_mass FROM halos WHERE", "syntax error"},
		{"SELECT NOPEFN(fof_halo_mass) FROM halos", "unknown function"},
		{"SELECT SUM(*) FROM halos", "COUNT"},
		{"SELECT note + 1 FROM halos", "string"},
	}
	for _, c := range cases {
		_, err := db.Query(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Query(%q) error = %v, want containing %q", c.sql, err, c.want)
		}
	}
}

func TestScanPruning(t *testing.T) {
	db := testDB(t)
	before := db.BytesScanned()
	query(t, db, "SELECT fof_halo_tag FROM halos WHERE fof_halo_tag > 3")
	narrow := db.BytesScanned() - before
	before = db.BytesScanned()
	query(t, db, "SELECT * FROM halos")
	wide := db.BytesScanned() - before
	if narrow >= wide {
		t.Errorf("pruned scan read %d bytes, full scan %d", narrow, wide)
	}
	// The same holds over a table of several unmaterialized segments.
	segs := New()
	if err := segs.BulkAppend("t", stagedFrame(16, 0), stagedFrame(16, 8)); err != nil {
		t.Fatal(err)
	}
	before = segs.BytesScanned()
	query(t, segs, "SELECT tag FROM t")
	narrow = segs.BytesScanned() - before
	before = segs.BytesScanned()
	query(t, segs, "SELECT * FROM t")
	if wide := segs.BytesScanned() - before; narrow >= wide {
		t.Errorf("segmented pruned scan read %d bytes, full scan %d", narrow, wide)
	}
	info, err := db.ExplainQuery("SELECT fof_halo_tag FROM halos WHERE sim = 1 ORDER BY fof_halo_mass")
	if err != nil || info.Table != "halos" {
		t.Fatalf("ExplainQuery: %+v %v", info, err)
	}
	if want := "fof_halo_mass,fof_halo_tag,sim"; strings.Join(info.Columns, ",") != want {
		t.Errorf("ExplainQuery columns = %v, want %v", info.Columns, want)
	}
}

// TestCreateTableAndAppend: CreateTable refuses a duplicate name, and
// BulkAppend extends an existing table.
func TestCreateTableAndAppend(t *testing.T) {
	db := New()
	f := dataframe.MustFromColumns(
		dataframe.NewInt("a", []int64{1, 2}),
		dataframe.NewFloat("b", []float64{1.5, 2.5}),
	)
	if err := db.CreateTable("t", f); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", f); err == nil {
		t.Error("duplicate CreateTable should fail")
	}
	if err := db.BulkAppend("t", f); err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 4 {
		t.Errorf("rows after append = %d", got.NumRows())
	}
	if db.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
}

func TestAppendSchemaMismatch(t *testing.T) {
	db := testDB(t)
	bad := dataframe.MustFromColumns(dataframe.NewInt("x", []int64{1}))
	if err := db.BulkAppend("halos", bad); err == nil {
		t.Error("append with wrong schema should fail")
	}
}

func TestEmptyResultAndEmptyAggregate(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_tag FROM halos WHERE fof_halo_mass > 1e20")
	if f.NumRows() != 0 {
		t.Errorf("rows = %d", f.NumRows())
	}
	f = query(t, db, "SELECT COUNT(*) AS n FROM halos WHERE fof_halo_mass > 1e20")
	if f.MustColumn("n").I[0] != 0 {
		t.Errorf("empty count = %v", f.MustColumn("n").I[0])
	}
	// GROUP BY over empty input yields zero groups.
	f = query(t, db, "SELECT sim, COUNT(*) AS n FROM halos WHERE fof_halo_mass > 1e20 GROUP BY sim")
	if f.NumRows() != 0 {
		t.Errorf("empty groups = %d", f.NumRows())
	}
}

func TestAggregateArithmetic(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT SUM(fof_halo_mass) / COUNT(*) AS mean_mass FROM halos")
	wantAvg := (2e14 + 1e14 + 5e13 + 1.8e14 + 9e13 + 4e13) / 6
	if v := f.MustColumn("mean_mass").F[0]; math.Abs(v-wantAvg) > 1 {
		t.Errorf("mean = %v, want %v", v, wantAvg)
	}
}

func TestStringEscapesAndComments(t *testing.T) {
	db := testDB(t)
	f := query(t, db, "SELECT fof_halo_tag FROM halos -- comment\n WHERE note = 'big'")
	if f.NumRows() != 2 {
		t.Errorf("rows = %d", f.NumRows())
	}
	if _, err := db.Query("SELECT 'unterminated FROM halos"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"halo", "h%", true},
		{"halo", "%lo", true},
		{"halo", "h_lo", true},
		{"halo", "h_l", false},
		{"", "%", true},
		{"abc", "abc", true},
		{"abc", "a%c%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v", c.s, c.p, got)
		}
	}
}

// Property: SQL aggregates agree with direct dataframe computation.
func TestQuickAggregatesMatchDataframe(t *testing.T) {
	db := New()
	iter := 0
	prop := func(seed int64, nRaw uint8) bool {
		iter++
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		vals := make([]float64, n)
		groups := make([]int64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
			groups[i] = int64(rng.Intn(3))
		}
		f := dataframe.MustFromColumns(
			dataframe.NewInt("g", groups),
			dataframe.NewFloat("v", vals),
		)
		name := "q" + strconv.Itoa(iter)
		if err := db.CreateOrReplaceTable(name, f); err != nil {
			return false
		}
		got, err := db.Query("SELECT g, SUM(v) AS s, COUNT(*) AS n FROM " + name + " GROUP BY g ORDER BY g")
		if err != nil {
			return false
		}
		want, err := f.GroupBy([]string{"g"}, []dataframe.Agg{
			{Col: "v", Op: dataframe.Sum, As: "s"},
			{Op: dataframe.Count, As: "n"},
		})
		if err != nil {
			return false
		}
		want, err = want.SortBy(dataframe.SortKey{Col: "g"})
		if err != nil {
			return false
		}
		if got.NumRows() != want.NumRows() {
			return false
		}
		for i := 0; i < got.NumRows(); i++ {
			if got.MustColumn("g").IntAt(i) != want.MustColumn("g").IntAt(i) {
				return false
			}
			if math.Abs(got.MustColumn("s").F[i]-want.MustColumn("s").F[i]) > 1e-9 {
				return false
			}
			if got.MustColumn("n").I[i] != want.MustColumn("n").I[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: WHERE filtering never returns rows violating the predicate.
func TestQuickWhereSound(t *testing.T) {
	db := testDB(t)
	prop := func(thresholdRaw uint16) bool {
		threshold := float64(thresholdRaw) * 1e12
		f, err := db.Query("SELECT fof_halo_mass FROM halos WHERE fof_halo_mass > " + formatFloat(threshold))
		if err != nil {
			return false
		}
		for _, v := range f.MustColumn("fof_halo_mass").F {
			if v <= threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
