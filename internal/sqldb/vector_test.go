package sqldb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"infera/internal/dataframe"
	"infera/internal/telemetry"
)

func explain(t *testing.T, db *DB, sql string) ExplainInfo {
	t.Helper()
	info, err := db.ExplainQuery(sql)
	if err != nil {
		t.Fatalf("ExplainQuery(%q): %v", sql, err)
	}
	return info
}

func TestExplainQueryPruning(t *testing.T) {
	db := diffDB(t) // 5 segments; seg column is min=max=segment index

	info := explain(t, db, "SELECT tag FROM parts WHERE seg = 2")
	if info.Backend != "vectorized" || info.Segments != 5 || info.SegmentsPruned != 4 {
		t.Fatalf("seg=2 explain = %+v, want vectorized 5 segments 4 pruned", info)
	}
	f := query(t, db, "SELECT tag FROM parts WHERE seg = 2")
	if f.NumRows() != 59 { // segment 2 holds 37+11*2 rows
		t.Errorf("seg=2 rows = %d, want 59", f.NumRows())
	}

	if info := explain(t, db, "SELECT tag FROM parts WHERE seg = 99"); info.SegmentsPruned != 5 {
		t.Errorf("seg=99 pruned = %d, want 5", info.SegmentsPruned)
	}
	if f := query(t, db, "SELECT tag FROM parts WHERE seg = 99"); f.NumRows() != 0 {
		t.Errorf("seg=99 rows = %d, want 0", f.NumRows())
	}

	// AND narrows: a provably-true conjunct keeps the decision on seg.
	if info := explain(t, db, "SELECT tag FROM parts WHERE seg = 2 AND cnt > -10000"); info.SegmentsPruned != 4 {
		t.Errorf("seg=2 AND cnt>-10000 pruned = %d, want 4", info.SegmentsPruned)
	}
	// OR widens: two satisfiable alternatives keep two segments.
	if info := explain(t, db, "SELECT tag FROM parts WHERE seg = 2 OR seg = 4"); info.SegmentsPruned != 3 {
		t.Errorf("seg=2 OR seg=4 pruned = %d, want 3", info.SegmentsPruned)
	}
	if info := explain(t, db, "SELECT tag FROM parts WHERE seg IN (1, 3)"); info.SegmentsPruned != 3 {
		t.Errorf("seg IN (1,3) pruned = %d, want 3", info.SegmentsPruned)
	}
	if info := explain(t, db, "SELECT tag FROM parts WHERE seg BETWEEN 3 AND 4"); info.SegmentsPruned != 3 {
		t.Errorf("seg BETWEEN 3 AND 4 pruned = %d, want 3", info.SegmentsPruned)
	}
	// An impossible float range prunes everything even with NaNs present
	// (NaN < c is false), …
	if info := explain(t, db, "SELECT tag FROM parts WHERE val < -1e30"); info.SegmentsPruned != 5 {
		t.Errorf("val<-1e30 pruned = %d, want 5", info.SegmentsPruned)
	}
	// … but <= must NOT prune on the false side while NaNs exist: the
	// engine's cmp quirk makes NaN <= c true for every c.
	if info := explain(t, db, "SELECT tag FROM parts WHERE val <= 1e30"); info.SegmentsPruned != 0 {
		t.Errorf("val<=1e30 pruned = %d, want 0", info.SegmentsPruned)
	}
	if f := query(t, db, "SELECT tag FROM parts WHERE val <= 1e30"); f.NumRows() != 295 {
		t.Errorf("val<=1e30 rows = %d, want all 295 (NaN rows satisfy <=)", f.NumRows())
	}

	// The staged-snapshot shape: 16 segments, one step each; a
	// step-selective aggregation reads one of them.
	halos := New()
	for s := 0; s < 16; s++ {
		const rows = 64
		steps, cnts, masses := make([]int64, rows), make([]int64, rows), make([]float64, rows)
		for i := range steps {
			steps[i] = int64(99 + s*21)
			cnts[i] = int64(i * 1000)
			masses[i] = float64(i) * 1e13
		}
		if err := halos.BulkAppend("halos", dataframe.MustFromColumns(
			dataframe.NewInt("step", steps),
			dataframe.NewInt("fof_halo_count", cnts),
			dataframe.NewFloat("fof_halo_mass", masses),
		)); err != nil {
			t.Fatal(err)
		}
	}
	info = explain(t, halos, "SELECT COUNT(*) AS n FROM halos WHERE step = 393 AND fof_halo_mass > 1e14")
	if info.Backend != "vectorized" || info.Segments != 16 || info.SegmentsPruned != 15 {
		t.Errorf("step=393 explain = %+v, want vectorized 16 segments 15 pruned", info)
	}

	// An expression no kernel covers runs on the row evaluator, and its
	// WHERE is not pruned: it could fail on a row the stats would skip.
	info = explain(t, db, "SELECT tag FROM parts WHERE grp IN (tag, 1) AND seg = 99")
	if info.Backend != "vectorized" || info.RowReason != "non-constant IN list member tag" || info.SegmentsPruned != 0 {
		t.Errorf("row-evaluated explain = %+v, want vectorized, the IN refusal, 0 pruned", info)
	}
	if info := explain(t, db, "SELECT tag FROM parts WHERE seg = 2"); info.RowReason != "" {
		t.Errorf("kernel-covered explain has row reason %q", info.RowReason)
	}
}

func TestVectorizedMetrics(t *testing.T) {
	db := diffDB(t)
	reg := telemetry.NewRegistry()
	lbl := telemetry.L("ensemble", "t")
	db.SetMetrics(reg, lbl)

	if _, err := db.Query("SELECT tag FROM parts WHERE seg = 2 AND cnt % 2 = 0"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("infera_sql_segments_pruned_total", lbl).Value(); got != 4 {
		t.Errorf("segments_pruned = %d, want 4", got)
	}
	if got := reg.Counter("infera_sql_rows_filtered_total", lbl).Value(); got <= 0 || got >= 59 {
		t.Errorf("rows_filtered = %d, want in (0, 59)", got)
	}
	if got := reg.Counter("infera_sql_scanned_bytes_total", lbl).Value(); got <= 0 {
		t.Errorf("scanned_bytes = %d, want > 0", got)
	}
	vecHist := reg.Histogram("infera_sql_query_seconds", nil, lbl, telemetry.L("backend", "vectorized"))
	treeHist := reg.Histogram("infera_sql_query_seconds", nil, lbl, telemetry.L("backend", "treewalk"))
	if vecHist.Count() != 1 || treeHist.Count() != 0 {
		t.Errorf("histogram counts = vec %d tree %d, want 1/0", vecHist.Count(), treeHist.Count())
	}

	// A forced tree-walk run lands on the other series.
	if _, err := db.QueryBackend("SELECT tag FROM parts LIMIT 1", BackendTreeWalk); err != nil {
		t.Fatal(err)
	}
	if vecHist.Count() != 1 || treeHist.Count() != 1 {
		t.Errorf("after treewalk: histogram counts = vec %d tree %d, want 1/1", vecHist.Count(), treeHist.Count())
	}
}

// TestVectorizedEmptyComputedKind pins the projection parity rule: a
// computed column over zero surviving rows collapses to Int, exactly like
// the row engine's valuesToColumn over no values.
func TestVectorizedEmptyComputedKind(t *testing.T) {
	db := diffDB(t)
	f, err := db.Query("SELECT tag + 1 AS x, name FROM parts WHERE 1 = 0")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 0 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	if k := f.MustColumn("x").Kind; k != dataframe.Int {
		t.Errorf("computed empty column kind = %v, want Int", k)
	}
	if k := f.MustColumn("name").Kind; k != dataframe.String {
		t.Errorf("pass-through empty column kind = %v, want String", k)
	}
	// The same rule holds for an output on the row evaluator.
	f, err = db.Query("SELECT name + 1 AS x FROM parts WHERE 1 = 0")
	if err != nil {
		t.Fatal(err)
	}
	if k := f.MustColumn("x").Kind; f.NumRows() != 0 || k != dataframe.Int {
		t.Errorf("row-evaluated empty column: %d rows of %v, want 0 of Int", f.NumRows(), k)
	}
}

// TestTopKStability: with heavy key ties, the bounded heap must return the
// same rows in the same order as the tree-walk's stable full sort.
func TestTopKStability(t *testing.T) {
	dbTW, dbVec := diffDB(t), diffDB(t)
	for _, sql := range []string{
		"SELECT tag FROM parts ORDER BY grp LIMIT 10",
		"SELECT tag FROM parts ORDER BY grp DESC LIMIT 10",
		"SELECT tag FROM parts ORDER BY seg DESC LIMIT 15",
		"SELECT tag, name FROM parts ORDER BY name LIMIT 25",
		"SELECT tag FROM parts ORDER BY val LIMIT 300",
	} {
		runDiff(t, dbTW, dbVec, sql)
	}
}

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a_c", true},
		{"abc", "a_", false},
		{"abc", "%c", true},
		{"abc", "ab%", true},
		{"abc", "%b%", true},
		{"abc", "%d%", false},
		{"abc", "abc%", true},
		{"abc", "%abc", true},
		{"abc", "%%a%%b%%c%%", true},
		{"aXbYc", "a%b%c", true},
		{"mississippi", "%iss%pi", true},
		{"mississippi", "%issp%", false},
		{"mississippi", "%iss%ppi", true},
		{"a%b", "a%b", true}, // % in data happens to match literally via wildcard
		{"", "_", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestLikeMatchPathological guards the satellite fix: the old recursive %
// expansion was O(2^n) on alternating patterns; the two-pointer rewrite
// must answer well inside the timeout on both matching and non-matching
// adversarial inputs.
func TestLikeMatchPathological(t *testing.T) {
	type tc struct {
		s, p string
		want bool
	}
	cases := []tc{
		{strings.Repeat("a", 64) + "b", strings.Repeat("%a", 24) + "%", true},
		{strings.Repeat("a", 64), strings.Repeat("a%", 32) + "b", false},
		{strings.Repeat("ab", 40), strings.Repeat("%a", 30) + "%c", false},
	}
	done := make(chan []bool, 1)
	go func() {
		got := make([]bool, len(cases))
		for i, c := range cases {
			got[i] = likeMatch(c.s, c.p)
		}
		done <- got
	}()
	select {
	case got := <-done:
		for i, c := range cases {
			if got[i] != c.want {
				t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got[i], c.want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("likeMatch did not terminate on pathological patterns (exponential backtracking regression)")
	}
}

// BenchmarkTopKLimit runs the wide top-k statement the SQL agent emits for
// a top-N question (every halo column, ORDER BY mass DESC LIMIT 50) over
// two staged segments of 60,000 halos and 15 columns, in catalog order.
func BenchmarkTopKLimit(b *testing.B) {
	const rows = 60_000
	floats := []string{
		"fof_halo_mass", "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z",
		"fof_halo_mean_vx", "fof_halo_mean_vy", "fof_halo_mean_vz", "fof_halo_vel_disp",
		"fof_halo_ke", "sod_halo_M500c", "sod_halo_R500c", "sod_halo_MGas500c", "sod_halo_cdelta",
	}
	rng := rand.New(rand.NewSource(1))
	var segs []*dataframe.Frame
	for s := 0; s < 2; s++ {
		tags, counts := make([]int64, rows), make([]int64, rows)
		cols := []*dataframe.Column{dataframe.NewInt("fof_halo_tag", tags), dataframe.NewInt("fof_halo_count", counts)}
		for i := range tags {
			tags[i] = int64(s*rows + i)
			counts[i] = 10 + rng.Int63n(5000)
		}
		for _, name := range floats {
			v := make([]float64, rows)
			for i := range v {
				v[i] = math.Exp(rng.NormFloat64()) * 1e12
			}
			cols = append(cols, dataframe.NewFloat(name, v))
		}
		segs = append(segs, dataframe.MustFromColumns(cols...))
	}
	db := New()
	if err := db.BulkAppend("haloproperties", segs...); err != nil {
		b.Fatal(err)
	}
	sql := "SELECT fof_halo_tag, fof_halo_count, " + strings.Join(floats, ", ") +
		" FROM haloproperties ORDER BY fof_halo_mass DESC LIMIT 50"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := db.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if f.NumRows() != 50 {
			b.Fatalf("%d rows, want 50", f.NumRows())
		}
	}
}

// BenchmarkGroupedQuery runs a grouped statement on the vectorized engine:
// COUNT, SUM, AVG and MEDIAN of a Float column per Int key of 200 values,
// over 50,000 shuffled rows staged in three segments.
func BenchmarkGroupedQuery(b *testing.B) {
	const rows = 50_000
	rng := rand.New(rand.NewSource(1))
	tag, mass := make([]int64, rows), make([]float64, rows)
	for i := range tag {
		tag[i] = 1_000_000 + rng.Int63n(200)
		mass[i] = math.Exp(rng.NormFloat64()) * 1e12
	}
	f := dataframe.MustFromColumns(dataframe.NewInt("tag", tag), dataframe.NewFloat("mass", mass))
	db := New()
	if err := db.BulkAppend("halos", f.Slice(0, rows/3), f.Slice(rows/3, 2*rows/3), f.Slice(2*rows/3, rows)); err != nil {
		b.Fatal(err)
	}
	const sql = "SELECT tag, COUNT(*) AS n, SUM(mass) AS s, AVG(mass) AS m, MEDIAN(mass) AS med FROM halos GROUP BY tag"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := db.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() != 200 {
			b.Fatalf("%d groups, want 200", out.NumRows())
		}
	}
}
