package core_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"infera/internal/core"
	"infera/internal/dataframe"
	"infera/internal/eval"
	"infera/internal/llm"
	"infera/internal/sqldb"
)

// TestBankSQLPlansVectorized asks the evaluation bank, with the simulated
// model's column errors left on, and replays every SQL statement the
// agents recorded against the in-memory staging database it ran on. Each
// one must either have a kernel for every expression (an empty RowReason),
// or fail in Query with the tree-walk's exact error text, naming a column
// its table lacks — the model's injected mistake. So the agents' traffic
// needs the row evaluator for no statement that could succeed.
func TestBankSQLPlansVectorized(t *testing.T) {
	a, err := core.New(core.Config{EnsembleDir: recycleEnsemble(t, 1000), WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	statements, vectorized := 0, 0
	for i, q := range eval.Bank() {
		ans, db, _ := a.AskWithDB(q.Text, core.AskOptions{Model: llm.NewSim(llm.SimConfig{Seed: int64(i + 1)})})
		if ans == nil {
			continue
		}
		sess, err := a.Store().OpenSession(ans.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sess.Manifest() {
			if e.Agent != "sql" || e.Kind != "code" {
				continue
			}
			data, err := sess.Read(e)
			if err != nil {
				t.Fatal(err)
			}
			sql := string(data)
			statements++
			info, err := db.ExplainQuery(sql)
			if err == nil && info.RowReason == "" {
				vectorized++
				continue
			}
			_, qErr := db.Query(sql)
			_, twErr := db.QueryBackend(sql, sqldb.BackendTreeWalk)
			var ce *dataframe.ColumnError
			if qErr == nil || twErr == nil || qErr.Error() != twErr.Error() || !errors.As(qErr, &ce) {
				t.Errorf("%s: %q: row reason %q; Query error %v; tree-walk error %v", q.ID, sql, info.RowReason, qErr, twErr)
				continue
			}
			if !lacksColumn(db, ce) {
				t.Errorf("%s: %q fails on column %q, which its table has", q.ID, sql, ce.Name)
			}
		}
	}
	if vectorized == 0 {
		t.Fatalf("none of %d statements has a kernel for every expression", statements)
	}
	t.Logf("%d statements, %d on kernels, %d naming a missing column", statements, vectorized, statements-vectorized)
}

// lacksColumn reports whether ce lists exactly one table's columns and
// that table has no column named ce.Name.
func lacksColumn(db *sqldb.DB, ce *dataframe.ColumnError) bool {
	for _, ti := range db.Tables() {
		names := make([]string, len(ti.Columns))
		for i, c := range ti.Columns {
			names[i] = c.Name
		}
		if strings.Join(names, "\x00") == strings.Join(ce.Available, "\x00") {
			return !slices.Contains(names, ce.Name)
		}
	}
	return false
}
