package script

import (
	"math"
	"math/rand"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/sqldb"
)

// The script and SQL put rows in order and decide which rows share a key
// through the same dataframe kernels. These tests run both over the same
// frames and compare the answers. Int keys stay below 2^53 in magnitude:
// SQL still orders Int as float64.

// crossFrame is a shuffled table of rows rows: g, a String key with a
// '\x1f' in some values; k, an Int key of a few values up to ±(2^53-1); f,
// a Float key with NaN, ±0 and ±Inf; v, a Float value, NaN in about one row
// in eight and in every row of group g = "nan".
func crossFrame(rng *rand.Rand, rows int) *dataframe.Frame {
	gs := []string{"", "a", "b", "x\x1f", "\x1fy", "3", "nan"}
	ks := []int64{0, 3, -3, 1<<53 - 1, -(1<<53 - 1), 1e6}
	fs := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, 3}
	g, k, f, v := make([]string, rows), make([]int64, rows), make([]float64, rows), make([]float64, rows)
	for r := range g {
		g[r], k[r], f[r] = gs[rng.Intn(len(gs))], ks[rng.Intn(len(ks))], fs[rng.Intn(len(fs))]
		v[r] = float64(rng.Intn(2000)-1000) / 8
		if g[r] == "nan" || rng.Intn(8) == 0 {
			v[r] = math.NaN()
		}
	}
	return dataframe.MustFromColumns(dataframe.NewString("g", g), dataframe.NewInt("k", k),
		dataframe.NewFloat("f", f), dataframe.NewFloat("v", v))
}

// crossDB stages f as table t in three segments, so the SQL scan crosses
// segment and block bounds.
func crossDB(t *testing.T, f *dataframe.Frame) *sqldb.DB {
	t.Helper()
	n := f.NumRows()
	db := sqldb.New()
	if err := db.BulkAppend("t", f.Slice(0, n/3), f.Slice(n/3, n/2), f.Slice(n/2, n)); err != nil {
		t.Fatal(err)
	}
	return db
}

// scriptOn runs src with f as table t and returns its result.
func scriptOn(t *testing.T, f *dataframe.Frame, src string) *dataframe.Frame {
	t.Helper()
	env := NewEnv(DefaultRegistry(), "")
	env.Tables = map[string]*dataframe.Frame{"t": f.Shallow().MarkShared()}
	run(t, env, "t = load_table(\"t\")\n"+src)
	return env.Result
}

// sqlOn returns the statement's answer on both engines, failing when they
// differ.
func sqlOn(t *testing.T, db *sqldb.DB, sql string) *dataframe.Frame {
	t.Helper()
	got, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	ref, err := db.QueryBackend(sql, sqldb.BackendTreeWalk)
	if err != nil {
		t.Fatalf("%s (tree-walk): %v", sql, err)
	}
	if !dataframe.Equal(got, ref) {
		t.Fatalf("%s: engines differ:\n%v\n%v", sql, got, ref)
	}
	return got
}

func TestSQLAndScriptAgree(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		f := crossFrame(rand.New(rand.NewSource(seed)), 300+int(seed)*97)
		db := crossDB(t, f)
		cases := []struct{ sql, script string }{
			{"SELECT * FROM t ORDER BY k", `result(sort(t, "k", false))`},
			{"SELECT * FROM t ORDER BY k DESC", `result(sort(t, "k", true))`},
			{"SELECT * FROM t ORDER BY f", `result(sort(t, "f", false))`},
			{"SELECT * FROM t ORDER BY f DESC", `result(sort(t, "f", true))`},
			{"SELECT * FROM t ORDER BY g DESC", `result(sort(t, "g", true))`},
			{"SELECT * FROM t ORDER BY k DESC LIMIT 7", `result(head(sort(t, "k", true), 7))`},
			{"SELECT * FROM t ORDER BY f LIMIT 9", `result(head(sort(t, "f", false), 9))`},
			{"SELECT DISTINCT g, k FROM t", `result(distinct(t, ["g", "k"]))`},
			{"SELECT DISTINCT f, g FROM t", `result(distinct(t, ["f", "g"]))`},
			{
				"SELECT g, k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m, STDDEV(v) AS sd, MEDIAN(v) AS med FROM t GROUP BY g, k",
				`result(groupby_multi(t, ["g", "k"], ["v", "v", "v", "v", "v", "v", "v"], ["count", "sum", "min", "max", "mean", "std", "median"], ["n", "s", "lo", "hi", "m", "sd", "med"]))`,
			},
			{
				"SELECT g, COUNT(v) AS n, SUM(v) AS s, STDDEV(v) AS sd, MEDIAN(v) AS med FROM t GROUP BY g",
				`result(groupby_multi(t, ["g"], ["v", "v", "v", "v"], ["count", "sum", "std", "median"], ["n", "s", "sd", "med"]))`,
			},
			{
				"SELECT f, COUNT(*) AS n, SUM(v) AS s FROM t WHERE v > 0 GROUP BY f",
				`result(groupby_multi(filter_gt(t, "v", 0), ["f"], ["v", "v"], ["count", "sum"], ["n", "s"]))`,
			},
			{
				"SELECT k, MAX(v) AS hi FROM t GROUP BY k",
				`result(groupby(t, ["k"], "v", "max", "hi"))`,
			},
		}
		for _, c := range cases {
			got, want := sqlOn(t, db, c.sql), scriptOn(t, f, c.script)
			if !dataframe.Equal(got, want) {
				t.Fatalf("seed %d: %s\nSQL:\n%v\nscript (%s):\n%v", seed, c.sql, got, c.script, want)
			}
		}
	}
}

// TestCompositeKeysAcrossEngines pins the composite key on every engine:
// ("x\x1f", "y") and ("x", "\x1fy") are two keys. They were one while each
// key joined its parts with '\x1f'.
func TestCompositeKeysAcrossEngines(t *testing.T) {
	f := dataframe.MustFromColumns(dataframe.NewString("a", []string{"x\x1f", "x"}),
		dataframe.NewString("b", []string{"y", "\x1fy"}))
	db := crossDB(t, f)
	for _, be := range []sqldb.Backend{sqldb.BackendVectorized, sqldb.BackendTreeWalk} {
		for _, sql := range []string{"SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b", "SELECT DISTINCT a, b FROM t"} {
			out, err := db.QueryBackend(sql, be)
			if err != nil {
				t.Fatal(err)
			}
			if out.NumRows() != 2 {
				t.Errorf("%s on %v: %d rows, want 2", sql, be, out.NumRows())
			}
		}
	}
	for _, src := range []string{`result(groupby(t, ["a", "b"], "a", "count", "n"))`, `result(distinct(t, ["a", "b"]))`} {
		if out := scriptOn(t, f, src); out.NumRows() != 2 {
			t.Errorf("%s: %d rows, want 2", src, out.NumRows())
		}
	}
}

// TestSemiJoinMatchesAcrossKinds pins semi_join's cross-kind match: a key
// matches by its text, so Int 3, Float 3 and String "3" all match one
// another, while Float 3.5, Float 1e6 (text "1e+06") and String "03" match
// no Int key.
func TestSemiJoinMatchesAcrossKinds(t *testing.T) {
	cols := map[string]*dataframe.Column{
		"int":    dataframe.NewInt("k", []int64{3, 1e6, 7}),
		"float":  dataframe.NewFloat("k", []float64{3, 3.5, 1e6}),
		"string": dataframe.NewString("k", []string{"3", "03", "x"}),
	}
	for probe, pc := range cols {
		for build, bc := range cols {
			env := NewEnv(DefaultRegistry(), "")
			env.Tables = map[string]*dataframe.Frame{
				"p": dataframe.MustFromColumns(pc).MarkShared(),
				"b": dataframe.MustFromColumns(bc).MarkShared(),
			}
			run(t, env, `result(semi_join(load_table("p"), load_table("b"), "k"))`)
			want := 3
			if probe != build {
				want = 1 // only the 3s
			}
			if got := env.Result.NumRows(); got != want {
				t.Errorf("semi_join of %s keys by %s keys kept %d rows, want %d:\n%v", probe, build, got, want, env.Result)
			}
		}
	}
}
