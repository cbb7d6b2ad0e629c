package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"infera/internal/dataframe"
)

// diffFrames builds a deterministic multi-segment table exercising every
// engine edge: negative ints, NaN floats, duplicate and empty strings,
// LIKE metacharacters in data, and a segment-clustered column (seg) whose
// min/max stats make pruning decidable.
func diffFrames() []*dataframe.Frame {
	rng := rand.New(rand.NewSource(99))
	names := []string{"alpha", "beta", "gamma", "delta", "a%b_c", ""}
	var frames []*dataframe.Frame
	tag := int64(0)
	for s := 0; s < 5; s++ {
		n := 37 + 11*s
		tags := make([]int64, n)
		segs := make([]int64, n)
		grps := make([]int64, n)
		cnts := make([]int64, n)
		vals := make([]float64, n)
		nms := make([]string, n)
		for i := 0; i < n; i++ {
			tag++
			tags[i] = tag
			segs[i] = int64(s)
			grps[i] = rng.Int63n(4)
			cnts[i] = rng.Int63n(2000) - 500
			v := rng.NormFloat64() * 1e14
			if i%9 == 4 {
				v = math.NaN()
			}
			vals[i] = v
			nms[i] = names[rng.Intn(len(names))]
		}
		frames = append(frames, dataframe.MustFromColumns(
			dataframe.NewInt("tag", tags),
			dataframe.NewInt("seg", segs),
			dataframe.NewInt("grp", grps),
			dataframe.NewInt("cnt", cnts),
			dataframe.NewFloat("val", vals),
			dataframe.NewString("name", nms),
		))
	}
	return frames
}

// rankRows is the row count of each of rankFrames' two segments: more
// than two blocks, so top-k heaps and tie runs cross block boundaries.
const rankRows = 2*blockSize + 3616

// rankFrames builds the top-k table: two segments of rankRows rows, a
// unique id in row order, and three keys for ORDER BY … LIMIT. fk is a
// Float with NaN and ±Inf; fz a Float with a few negatives; ik an Int.
// Runs of one key value (fk 1e6, fz mixed −0 and +0, ik 2^53 and 2^53+1,
// which are equal as the float64 both engines compare) cross segment 0's
// first block boundary and the boundary between the segments; runs of
// another (fk −1e6, fz ±0, ik −2^40) cross both block boundaries of
// segment 1. A LIMIT of 50 cuts through a run after it crosses a
// boundary: fk descending (past NaN and +Inf) and ascending (past −Inf),
// and fz ascending (past the negatives).
func rankFrames() []*dataframe.Frame {
	rng := rand.New(rand.NewSource(7))
	near := func(i, at, before, after int) bool { return i >= at-before && i < at+after }
	var frames []*dataframe.Frame
	for s := 0; s < 2; s++ {
		ids := make([]int64, rankRows)
		fk := make([]float64, rankRows)
		fz := make([]float64, rankRows)
		ik := make([]int64, rankRows)
		for i := range ids {
			ids[i] = int64(s*rankRows + i)
			fk[i] = rng.NormFloat64() * 1e3
			fz[i] = 1 + rng.Float64()*100
			ik[i] = rng.Int63n(1000) - 500
			var top, bottom bool
			if s == 0 {
				top = near(i, blockSize, 12, 8) || i >= rankRows-8
			} else {
				top = i < 10
				bottom = near(i, blockSize, 12, 8) || near(i, 2*blockSize, 14, 16)
			}
			zero := math.Copysign(0, float64(i%3-1))
			switch {
			case top:
				fk[i], fz[i], ik[i] = 1e6, zero, 1<<53+int64(i%2)
			case bottom:
				fk[i], fz[i], ik[i] = -1e6, zero, -1<<40
			case i%4001 == 11:
				fk[i] = math.NaN()
			case i%3001 == 17:
				fk[i] = math.Inf(1 - 2*(i/3001%2))
			case i%2999 == 5:
				fz[i] = -float64(i)
			}
		}
		frames = append(frames, dataframe.MustFromColumns(
			dataframe.NewInt("id", ids),
			dataframe.NewFloat("fk", fk),
			dataframe.NewFloat("fz", fz),
			dataframe.NewInt("ik", ik),
		))
	}
	return frames
}

// rankCorpus is ORDER BY key ASC|DESC LIMIT 0|1|50|rows+1 on each key of
// the ranks table, plus top-k under a WHERE, where the keys are gathered
// from the surviving rows — once with NaN ties at the root of a full
// ascending heap.
func rankCorpus() []string {
	var out []string
	for _, key := range []string{"fk", "fz", "ik"} {
		for _, dir := range []string{"ASC", "DESC"} {
			for _, n := range []int{0, 1, 50, 2*rankRows + 1} {
				out = append(out, fmt.Sprintf("SELECT id, %s FROM ranks ORDER BY %s %s LIMIT %d", key, key, dir, n))
			}
		}
	}
	return append(out,
		"SELECT id, fk FROM ranks WHERE id % 3 = 0 ORDER BY fk DESC LIMIT 50",
		"SELECT id, fk FROM ranks WHERE id % 4001 = 6 ORDER BY fk LIMIT 7", // 5 numbers, then 5 NaNs
		"SELECT id, ik FROM ranks WHERE fz != 0 ORDER BY ik LIMIT 50",
	)
}

// diffDB holds the parts table (diffFrames) and the ranks table
// (rankFrames), both multi-segment.
func diffDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	if err := db.BulkAppend("parts", diffFrames()...); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkAppend("ranks", rankFrames()...); err != nil {
		t.Fatal(err)
	}
	return db
}

// diffCorpus is the hand-written statement corpus: projections, computed
// expressions, every predicate form, functions, aggregates, DISTINCT,
// ORDER BY (plain/desc/multi/alias/computed/strings), LIMIT with and
// without ORDER BY, empty results, and error cases. Expressions no kernel
// covers are part of the corpus on purpose — they run on the row
// evaluator, which must see the rows the tree-walk sees, in its order,
// and so fail or succeed with it.
var diffCorpus = []string{
	"SELECT * FROM parts",
	"SELECT tag, val FROM parts",
	"SELECT tag AS t, val * 2 AS v2 FROM parts WHERE cnt > 100",
	"SELECT tag FROM parts WHERE val >= 0 AND cnt < 700",
	"SELECT tag FROM parts WHERE NOT (grp = 2) OR val < -1e13",
	"SELECT tag FROM parts WHERE cnt BETWEEN 10 AND 400",
	"SELECT tag FROM parts WHERE cnt NOT BETWEEN 10 AND 400",
	"SELECT tag FROM parts WHERE val BETWEEN -5e13 AND 5e13",
	"SELECT tag FROM parts WHERE val NOT BETWEEN -5e13 AND 5e13",
	"SELECT tag FROM parts WHERE grp IN (1, 3)",
	"SELECT tag FROM parts WHERE grp NOT IN (1, 3)",
	"SELECT tag FROM parts WHERE name IN ('alpha', 'delta')",
	"SELECT tag FROM parts WHERE name LIKE 'a%'",
	"SELECT tag FROM parts WHERE name LIKE '%ta'",
	"SELECT tag FROM parts WHERE name LIKE '%a%b%'",
	"SELECT tag FROM parts WHERE name LIKE 'a__h_'",
	"SELECT tag FROM parts WHERE name = 'beta'",
	"SELECT tag FROM parts WHERE name != ''",
	"SELECT tag FROM parts WHERE name < 'delta'",
	"SELECT tag FROM parts WHERE name >= 'beta'",
	"SELECT tag FROM parts WHERE name = grp",
	"SELECT ABS(val) AS a, SQRT(ABS(val)) FROM parts WHERE tag % 7 = 0",
	"SELECT tag, ROUND(val / 1e13) AS r, FLOOR(cnt / 10), CEIL(cnt / 10) FROM parts WHERE grp = 1",
	"SELECT tag, POW(grp, 2) FROM parts WHERE seg > 2",
	"SELECT tag, LOG10(ABS(val) + 1), EXP(grp / 10) FROM parts WHERE cnt >= 0",
	"SELECT tag, cnt + grp, cnt - 2 * grp, -cnt AS neg FROM parts",
	"SELECT tag, cnt / grp FROM parts",
	"SELECT tag FROM parts WHERE val <= 0",
	"SELECT tag FROM parts WHERE val > 0",
	"SELECT tag FROM parts WHERE val != 0",
	"SELECT tag FROM parts WHERE val = val",
	"SELECT tag FROM parts WHERE val",
	"SELECT tag FROM parts WHERE NOT name",
	"SELECT tag FROM parts WHERE 5e13 < val",
	"SELECT tag FROM parts WHERE 2 >= grp",
	"SELECT DISTINCT grp FROM parts",
	"SELECT DISTINCT grp, name FROM parts ORDER BY grp DESC, name",
	"SELECT DISTINCT grp FROM parts LIMIT 2",
	"SELECT DISTINCT grp * 2 AS g2 FROM parts",
	"SELECT tag FROM parts LIMIT 7",
	"SELECT tag FROM parts LIMIT 0",
	"SELECT tag FROM parts LIMIT 1000",
	"SELECT tag FROM parts WHERE grp = 3 LIMIT 5",
	"SELECT tag, val FROM parts ORDER BY val DESC LIMIT 5",
	"SELECT tag, val FROM parts ORDER BY val",
	"SELECT tag, val FROM parts ORDER BY val DESC",
	"SELECT tag FROM parts ORDER BY val DESC, tag LIMIT 9",
	"SELECT tag FROM parts ORDER BY grp, cnt DESC, tag LIMIT 12",
	"SELECT tag, val * 2 AS dub FROM parts ORDER BY dub LIMIT 4",
	"SELECT tag FROM parts ORDER BY cnt % 5, tag LIMIT 10",
	"SELECT name FROM parts ORDER BY name LIMIT 6",
	"SELECT name, tag FROM parts ORDER BY name DESC, tag LIMIT 6",
	"SELECT tag FROM parts WHERE cnt > 0 ORDER BY cnt LIMIT 3",
	"SELECT tag, cnt FROM parts ORDER BY cnt LIMIT 200",
	"SELECT grp, COUNT(*) AS n, SUM(val), AVG(val), MIN(val), MAX(val) FROM parts GROUP BY grp",
	"SELECT grp, STDDEV(cnt), MEDIAN(cnt) FROM parts GROUP BY grp ORDER BY grp",
	"SELECT grp, name, COUNT(*) AS n FROM parts GROUP BY grp, name ORDER BY grp, name",
	"SELECT COUNT(*) FROM parts WHERE val > 1e14",
	"SELECT COUNT(*) FROM parts WHERE val > 1e30",
	"SELECT SUM(cnt) FROM parts WHERE grp = 9",
	"SELECT COUNT(*) AS n, SUM(val) / COUNT(*) AS mean FROM parts",
	"SELECT MEDIAN(val) FROM parts",
	"SELECT name, COUNT(*) AS n FROM parts GROUP BY name ORDER BY n DESC, name",
	"SELECT grp, COUNT(*) AS n FROM parts WHERE name LIKE '%a%' GROUP BY grp ORDER BY grp LIMIT 3",
	"SELECT grp + 1 AS g1, AVG(val / 1e14) FROM parts GROUP BY grp + 1 ORDER BY g1",
	"SELECT seg, MAX(cnt) AS m FROM parts WHERE seg >= 3 GROUP BY seg",
	"SELECT grp, COUNT(*) AS n, AVG(val) AS avg_mass, STDDEV(val) AS sd, MAX(cnt) AS max_count FROM parts WHERE val > 1.2e14 AND cnt < 900 GROUP BY grp ORDER BY grp",
	"SELECT tag FROM parts WHERE seg = 2",
	"SELECT tag FROM parts WHERE seg = 2 AND val < 1e16",
	"SELECT tag FROM parts WHERE seg = 99",
	"SELECT tag FROM parts WHERE seg BETWEEN 1 AND 2 ORDER BY tag DESC LIMIT 8",
	"SELECT tag * 2 AS d FROM parts WHERE 1 = 0",
	"SELECT tag, name FROM parts WHERE 1 = 0",
	// Row-evaluator and error parity.
	"SELECT tag FROM parts WHERE grp IN (tag, 1)",
	"SELECT tag, tag % grp FROM parts",
	"SELECT tag % 0 FROM parts",
	"SELECT nope FROM parts",
	"SELECT tag FROM parts WHERE name + 1 > 0",
	"SELECT SQRT(name) FROM parts",
	"SELECT NOSUCHFN(tag) FROM parts",
	"SELECT name + 1 AS x FROM parts WHERE 1 = 0",
	"SELECT tag FROM parts WHERE grp = 99 AND name + 1 > 0",
	"SELECT tag, tag % grp FROM parts WHERE grp != 0 LIMIT 3",
	"SELECT tag, tag % grp FROM parts LIMIT 3",
	"SELECT tag FROM parts WHERE name + 1 > 0 AND seg = 99",
	"SELECT *, COUNT(*) FROM parts WHERE 1 = 0",
	"SELECT tag FROM parts WHERE tag LIKE 'a%'",
	"SELECT tag FROM parts WHERE COUNT(*) > 1",
	"SELECT(0)FROM parts GROUP BY grp ORDER BY A",
	"SELECT zed, nope FROM parts WHERE na + a LIKE 'x%'",
	"SELECT *, COUNT(*) FROM parts WHERE name + 1 > 0",
	"SELECT * FROM parts GROUP BY grp",
	"SELECT * FROM parts WHERE nope = 1",
	"SELECT * FROM parts WHERE grp = 99 AND nope = 1",
	"SELECT *, nope FROM parts WHERE 1 = 0",
	"SELECT * FROM parts ORDER BY zz + aa",
	"SELECT * FROM parts WHERE cnt > 0 ORDER BY zz + aa LIMIT 2",
	"SELECT tag FROM parts WHERE tag % (seg - 3) = 0 LIMIT 1",
	"SELECT tag FROM parts WHERE tag % (seg - 3) = 0 ORDER BY SQRT(name)",
	"SELECT tag FROM parts ORDER BY tag % (tag - 5), SQRT(name)",
	"SELECT tag % (seg - 3), SQRT(name) FROM parts",
	"SELECT COUNT(*) FROM parts GROUP BY tag % grp",
	"SELECT COUNT(*) AS n FROM parts WHERE grp != 0 GROUP BY tag % grp ORDER BY n",
	"SELECT COUNT(*) FROM parts GROUP BY tag % (tag - 6), SQRT(name)",
	"SELECT SUM(COUNT(*)) FROM parts",
	"SELECT grp, SUM(tag % (grp + 1)) AS s FROM parts GROUP BY grp ORDER BY grp",
	"SELECT grp IN (tag, 1) AS m, COUNT(*) FROM parts GROUP BY grp IN (tag, 1) ORDER BY m",
	"SELECT tag FROM parts ORDER BY grp IN (tag, 1), tag LIMIT 5",
	"SELECT tag FROM parts WHERE grp IN (tag, 1) ORDER BY tag DESC LIMIT 0",
	"SELECT tag, grp IN (tag, 1) FROM parts ORDER BY tag DESC LIMIT 4",
	"SELECT DISTINCT grp IN (tag, 2) AS m FROM parts",
	"SELECT tag, tag % grp AS r FROM parts WHERE grp != 0 ORDER BY r DESC, tag LIMIT 5",
	"SELECT tag, tag FROM parts",
}

// diffQuery runs sql on the tree-walk oracle and through Query and
// describes how they diverge: in error text, or in the frames when both
// succeed. ExplainQuery must plan the statement on the one engine or
// reject it with Query's own error. "" means they agree.
func diffQuery(dbTW, dbVec *DB, sql string) string {
	tw, twErr := dbTW.QueryBackend(sql, BackendTreeWalk)
	vf, vErr := dbVec.Query(sql)
	if errText(twErr) != errText(vErr) {
		return fmt.Sprintf("error divergence:\n  treewalk: %v\n  query:    %v", twErr, vErr)
	}
	if twErr == nil && !dataframe.Equal(tw, vf) {
		return fmt.Sprintf("frames diverge:\ntreewalk %dx%d:\n%v\nquery %dx%d:\n%v",
			tw.NumRows(), tw.NumCols(), tw, vf.NumRows(), vf.NumCols(), vf)
	}
	if _, err := parseSelect(sql); err != nil {
		return ""
	}
	info, err := dbVec.ExplainQuery(sql)
	if err != nil && err.Error() != errText(vErr) {
		return fmt.Sprintf("explain fails with %v, query with %v", err, vErr)
	}
	if err == nil && info.Backend != "vectorized" {
		return fmt.Sprintf("explain plans backend %q", info.Backend)
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runDiff reports any divergence diffQuery finds.
func runDiff(t *testing.T, dbTW, dbVec *DB, sql string) {
	t.Helper()
	if msg := diffQuery(dbTW, dbVec, sql); msg != "" {
		t.Errorf("%q: %s", sql, msg)
	}
}

// TestDifferentialBackends runs the corpus, the top-k corpus and generated predicates
// through the tree-walk and Query and requires identical frames (or
// identical error text), with every statement planned on the one engine
// (diffQuery checks ExplainQuery). Separate databases keep the vectorized side multi-segment: the
// tree-walk's ReadTable would otherwise collapse the segments after the
// first statement.
func TestDifferentialBackends(t *testing.T) {
	dbTW := diffDB(t)
	dbVec := diffDB(t)

	corpus := append(append([]string{}, diffCorpus...), rankCorpus()...)
	rng := rand.New(rand.NewSource(12345))
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	for i := 0; i < 80; i++ {
		var col, thr string
		switch rng.Intn(4) {
		case 0:
			col, thr = "val", fmt.Sprintf("%g", rng.NormFloat64()*1e14)
		case 1:
			col, thr = "cnt", fmt.Sprintf("%d", rng.Int63n(2500)-600)
		case 2:
			col, thr = "grp", fmt.Sprintf("%d", rng.Int63n(6)-1)
		default:
			col, thr = "seg", fmt.Sprintf("%d", rng.Int63n(7)-1)
		}
		op := ops[rng.Intn(len(ops))]
		corpus = append(corpus, fmt.Sprintf("SELECT tag, %s FROM parts WHERE %s %s %s", col, col, op, thr))
	}

	for _, sql := range corpus {
		runDiff(t, dbTW, dbVec, sql)
	}
}

// TestMissingColumnErrorIsStable: with two missing columns, the tree-walk
// must name the same one on every run, since the text goes into the
// model's retry prompt.
func TestMissingColumnErrorIsStable(t *testing.T) {
	db := diffDB(t)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		_, err := db.QueryBackend("SELECT zed, nope FROM parts", BackendTreeWalk)
		seen[errText(err)] = true
	}
	if len(seen) != 1 || seen[""] {
		t.Errorf("error texts = %v, want one error", seen)
	}
}

// TestDifferentialSingleSegment reruns the corpus against single-segment
// (materialized) tables, covering the collapsed-residency shape a table
// takes after its first full read.
func TestDifferentialSingleSegment(t *testing.T) {
	mk := func() *DB {
		db := New()
		all, err := dataframe.Concat(diffFrames()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable("parts", all); err != nil {
			t.Fatal(err)
		}
		return db
	}
	dbTW, dbVec := mk(), mk()
	for _, sql := range diffCorpus {
		runDiff(t, dbTW, dbVec, sql)
	}
}
