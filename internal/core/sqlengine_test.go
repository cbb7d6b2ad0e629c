package core_test

import (
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"infera/internal/core"
	"infera/internal/eval"
	"infera/internal/llm"
	"infera/internal/sqldb"
)

// missingColumn matches the planner's reason for a statement that names a
// column its table does not have.
var missingColumn = regexp.MustCompile(`^column "([^"]+)" not in table schema$`)

// TestBankSQLPlansVectorized asks the evaluation bank, with the simulated
// model's column errors left on, and explains every SQL statement the
// agents recorded against the staging database it ran on. Each one must
// either plan on the vectorized engine or fall back only because it names
// a column its table lacks — the model's injected mistake, which fails on
// either engine. So the agents' traffic needs the SQL tree-walk for no
// statement that could succeed.
func TestBankSQLPlansVectorized(t *testing.T) {
	workDir := t.TempDir()
	a, err := core.New(core.Config{EnsembleDir: recycleEnsemble(t, 1000), WorkDir: workDir, DurableStaging: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	reasons := map[string]int{}
	statements, vectorized := 0, 0
	for i, q := range eval.Bank() {
		ans, _ := a.AskWith(q.Text, core.AskOptions{Model: llm.NewSim(llm.SimConfig{Seed: int64(i + 1)})})
		if ans == nil {
			continue
		}
		sess, err := a.Store().OpenSession(ans.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		db, err := sqldb.Open(filepath.Join(workDir, "db", ans.SessionID))
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for _, e := range sess.Manifest() {
			if e.Agent != "sql" || e.Kind != "code" {
				continue
			}
			sql, err := sess.Read(e)
			if err != nil {
				t.Fatal(err)
			}
			statements++
			info, err := db.ExplainQuery(string(sql))
			if err != nil {
				t.Errorf("%s: explain %q: %v", q.ID, sql, err)
				continue
			}
			if info.FallbackReason == "" {
				vectorized++
				continue
			}
			reasons[info.FallbackReason]++
			m := missingColumn.FindStringSubmatch(info.FallbackReason)
			if m == nil {
				t.Errorf("%s: %q falls back: %s", q.ID, sql, info.FallbackReason)
				continue
			}
			ti, _ := db.Table(info.Table)
			for _, c := range ti.Columns {
				if c.Name == m[1] {
					t.Errorf("%s: %q falls back on column %q, which %s has", q.ID, sql, m[1], info.Table)
				}
			}
		}
	}
	if vectorized == 0 {
		t.Fatalf("none of %d statements plans vectorized", statements)
	}
	var hist []string
	for r := range reasons {
		hist = append(hist, r)
	}
	sort.Strings(hist)
	t.Logf("%d statements, %d vectorized", statements, vectorized)
	for _, r := range hist {
		t.Logf("%4d  %s", reasons[r], r)
	}
}
