package core_test

import (
	"os"
	"testing"

	"infera/internal/core"
	"infera/internal/eval"
	"infera/internal/llm"
	"infera/internal/provenance"
	"infera/internal/stage"
)

// TestMain copies no repeated table without checking it against its
// encoding.
func TestMain(m *testing.M) {
	provenance.VerifyRepeats(true)
	os.Exit(m.Run())
}

// sqlTable returns the SQL step's table among ans's artifacts.
func sqlTable(t *testing.T, ans *core.Answer) provenance.Entry {
	t.Helper()
	for _, e := range ans.Artifacts {
		if e.Agent == "sql" && e.Kind == "data" {
			return e
		}
	}
	t.Fatalf("no SQL table among %d artifacts", len(ans.Artifacts))
	return provenance.Entry{}
}

// TestRepeatedAskCopiesTheSQLTable: asking one bank question twice copies
// the second ask's SQL table from the first ask's trail: its bytes are
// all copied, none encoded, with the first table's digest, and the trail
// verifies.
func TestRepeatedAskCopiesTheSQLTable(t *testing.T) {
	a, err := core.New(core.Config{EnsembleDir: recycleEnsemble(t, 200), WorkDir: t.TempDir(),
		Stage: stage.New(stage.DefaultBudgetBytes, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	q := eval.Bank()[0].Text
	ask := func(seed int64) (*core.Answer, error) {
		return a.AskWith(q, core.AskOptions{Model: llm.NewSim(llm.SimConfig{Seed: seed})})
	}
	first, err := ask(1)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Store().Stats()
	second, err := ask(2)
	if err != nil {
		t.Fatal(err)
	}
	after := a.Store().Stats()
	table := sqlTable(t, second)
	var total int64
	for _, e := range second.Artifacts {
		total += e.Bytes
	}
	if table.SHA256 != sqlTable(t, first).SHA256 {
		t.Fatal("the repeated table differs from the first")
	}
	if hits, copied, encoded := after.OriginHits-before.OriginHits, after.CopiedBytes-before.CopiedBytes, after.EncodedBytes-before.EncodedBytes; hits != 1 || copied != table.Bytes || encoded != total-table.Bytes {
		t.Fatalf("second ask: %d hits, %d bytes copied, %d encoded; want 1, the table's %d, the rest's %d",
			hits, copied, encoded, table.Bytes, total-table.Bytes)
	}
	if bad, err := a.VerifySession(second.SessionID); err != nil || len(bad) > 0 {
		t.Fatalf("verify: %v, %v", bad, err)
	}
}
