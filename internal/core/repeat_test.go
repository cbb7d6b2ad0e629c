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

// TestMain records no reference to a repeated table without checking it
// against its encoding, and poisons every stage buffer that goes back to
// the free list, so a use after recycle changes an answer or a digest.
func TestMain(m *testing.M) {
	provenance.VerifyRepeats(true)
	stage.PoisonRecycled(true)
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

// TestRepeatedAskCopiesTheSQLTable: asking one bank question twice
// records the second ask's SQL table as a reference to the first ask's
// trail: its bytes are all referenced, none encoded, with the first
// table's digest, and the trail verifies.
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
	if hits, referenced, encoded := after.OriginHits-before.OriginHits, after.ReferencedBytes-before.ReferencedBytes, after.EncodedBytes-before.EncodedBytes; hits != 1 || referenced != table.Bytes || encoded != total-table.Bytes {
		t.Fatalf("second ask: %d hits, %d bytes referenced, %d encoded; want 1, the table's %d, the rest's %d",
			hits, referenced, encoded, table.Bytes, total-table.Bytes)
	}
	if bad, err := a.VerifySession(second.SessionID); err != nil || len(bad) > 0 {
		t.Fatalf("verify: %v, %v", bad, err)
	}
}
