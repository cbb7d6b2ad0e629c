package sqldb

import (
	"strings"
	"testing"
)

var fuzzSQLSeeds = []string{
	"SELECT * FROM parts",
	"SELECT tag, val FROM parts WHERE cnt > 100 ORDER BY val DESC LIMIT 5",
	"SELECT grp, COUNT(*) AS n, AVG(val) FROM parts GROUP BY grp ORDER BY n",
	"SELECT tag FROM parts WHERE name LIKE '%a%' AND NOT (grp = 2)",
	"SELECT tag FROM parts WHERE cnt BETWEEN 10 AND 400",
	"SELECT tag FROM parts WHERE grp IN (0, 1, 2)",
	"SELECT SQRT(ABS(val)) FROM parts WHERE val != 0",
	"SELECT tag % 0 FROM parts",
	"SELECT nope FROM parts",
	"SELECT",
	"SELECT * FROM",
	"SELECT (((((tag))))) FROM parts",
	"SELECT - - - - tag FROM parts",
	"SELECT tag FROM parts WHERE NOT NOT NOT grp = 1",
	"select lower, keywords FROM parts",
	"SELECT 'unterminated FROM parts",
	"SELECT tag FROM parts LIMIT -1",
	"SELECT tag, tag % grp FROM parts WHERE grp != 0 ORDER BY tag LIMIT 3",
	"SELECT grp IN (tag, 1) AS m, SUM(cnt % grp) FROM parts WHERE val > 0 GROUP BY m",
	"SELECT *, COUNT(*) FROM parts WHERE grp = 1 AND tag % grp = 0",
}

// FuzzSQLParse asserts the lexer/parser never panic and recursion stays
// bounded on arbitrary statement text.
func FuzzSQLParse(f *testing.F) {
	for _, s := range fuzzSQLSeeds {
		f.Add(s)
	}
	// The known crasher class: unbounded expression recursion.
	f.Add("SELECT " + strings.Repeat("(", 2000) + "1")
	f.Add("SELECT tag FROM parts WHERE " + strings.Repeat("NOT ", 2000) + "1 = 1")
	f.Add("SELECT " + strings.Repeat("- ", 2000) + "1 FROM parts")
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := parseSelect(sql)
		if err == nil && stmt == nil {
			t.Fatal("nil statement without error")
		}
	})
}

// FuzzSQLQuery runs arbitrary statements through the tree-walk oracle and
// Query over the differential tables (parts and ranks) and asserts no
// panic, identical error text, identical frames whenever both succeed, and
// an ExplainQuery plan on the one engine (diffQuery).
func FuzzSQLQuery(f *testing.F) {
	for _, s := range fuzzSQLSeeds {
		f.Add(s)
	}
	for _, s := range rankCorpus() {
		f.Add(s)
	}
	dbTW := diffDB(f)
	dbVec := diffDB(f)
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 2048 {
			return
		}
		if msg := diffQuery(dbTW, dbVec, sql); msg != "" {
			t.Fatalf("%q: %s", sql, msg)
		}
	})
}

// TestSQLParserDepthBound locks in the recursion guard directly.
func TestSQLParserDepthBound(t *testing.T) {
	for _, sql := range []string{
		"SELECT " + strings.Repeat("(", 100_000) + "1",
		"SELECT tag FROM parts WHERE " + strings.Repeat("NOT ", 100_000) + "1 = 1",
		"SELECT " + strings.Repeat("- ", 100_000) + "1 FROM parts",
	} {
		_, err := parseSelect(sql)
		if err == nil || !strings.Contains(err.Error(), "too deeply nested") {
			t.Fatalf("statement %.40q...: err = %v, want nesting SyntaxError", sql, err)
		}
	}
	// Reasonable nesting still parses (each paren level costs two depth
	// frames: orExpr + notExpr).
	ok := "SELECT " + strings.Repeat("(", 40) + "tag" + strings.Repeat(")", 40) + " FROM parts"
	if _, err := parseSelect(ok); err != nil {
		t.Fatalf("depth-40 expression rejected: %v", err)
	}
}
