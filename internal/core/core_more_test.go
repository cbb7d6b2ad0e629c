package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infera/internal/llm"
)

const preciseQ = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"

func TestVerifyAndBranchSession(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask(preciseQ)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := a.VerifySession(ans.SessionID)
	if err != nil || len(bad) != 0 {
		t.Fatalf("verify: %v %v", bad, err)
	}
	// Branch from the midpoint of the trail.
	mid := ans.Artifacts[len(ans.Artifacts)/2].Seq
	branchID, err := a.BranchSession(ans.SessionID, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(branchID, ans.SessionID) {
		t.Errorf("branch id = %q", branchID)
	}
	branch, err := a.Store().OpenSession(branchID)
	if err != nil {
		t.Fatal(err)
	}
	m := branch.Manifest()
	if len(m) == 0 || len(m) >= len(ans.Artifacts) {
		t.Errorf("branch has %d artifacts, source %d", len(m), len(ans.Artifacts))
	}
	if badB, err := branch.Verify(); err != nil || len(badB) != 0 {
		t.Errorf("branch verify: %v %v", badB, err)
	}
	// Tamper with one byte inside one artifact's range of the log and
	// re-verify: exactly that artifact is flagged.
	target := ans.Artifacts[len(ans.Artifacts)/3]
	sess, _ := a.Store().OpenSession(ans.SessionID)
	path, off, err := sess.Locate(target)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteAt([]byte{0}, off+target.Bytes/2); err != nil {
		t.Fatal(err)
	}
	log.Close()
	bad, err = a.VerifySession(ans.SessionID)
	if err != nil || len(bad) != 1 || bad[0].Seq != target.Seq {
		t.Errorf("tamper detection: %v %v", bad, err)
	}
}

// TestAskLeavesOneSegment: one ask in a fresh work dir leaves its whole
// trail in one segment, a seg-*.log and its .jsonl under sessions/ with no
// directory beside them, and its staged database leaves nothing under db/.
func TestAskLeavesOneSegment(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask(preciseQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Artifacts) < 10 {
		t.Fatalf("ask recorded %d artifacts; the check needs a full trail", len(ans.Artifacts))
	}
	ents, err := os.ReadDir(filepath.Join(a.WorkDir(), "sessions"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(ents) != 2 || ents[0].IsDir() || ents[1].IsDir() || !strings.HasPrefix(names[0], "seg-") ||
		names[0] != strings.TrimSuffix(names[1], ".log")+".jsonl" {
		t.Errorf("one ask left %v under sessions/, want one segment's .jsonl and .log", names)
	}
	db, n := filepath.Join(a.WorkDir(), "db"), 0
	filepath.WalkDir(db, func(path string, d os.DirEntry, err error) error {
		if err == nil && path != db {
			n++
		}
		return nil
	})
	if n != 0 {
		t.Errorf("one ask created %d inodes under db/, want none", n)
	}
}

func TestBranchUnknownSession(t *testing.T) {
	a := newAssistant(t, Config{})
	if _, err := a.BranchSession("nope", 3); err == nil {
		t.Error("branching unknown session should fail")
	}
	if _, err := a.VerifySession("nope"); err == nil {
		t.Error("verifying unknown session should fail")
	}
}

func TestSkipDocumentationSavesTokensAndSummary(t *testing.T) {
	run := func(skip bool) (*Answer, error) {
		model := llm.NewSim(llm.SimConfig{Seed: 8, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		a := newAssistant(t, Config{Model: model, SkipDocumentation: skip})
		return a.Ask(preciseQ)
	}
	withDoc, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	without, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if !without.State.Done {
		t.Error("skip-doc run should still complete")
	}
	if without.Summary != "" {
		t.Errorf("skip-doc run has a summary: %q", without.Summary)
	}
	if withDoc.Summary == "" {
		t.Error("documented run missing summary")
	}
	if without.State.Usage.Total() >= withDoc.State.Usage.Total() {
		t.Errorf("skip-doc tokens %d should be below %d", without.State.Usage.Total(), withDoc.State.Usage.Total())
	}
}

func TestLocalModelDegradesGracefully(t *testing.T) {
	// The weaker local-model profile must still run the pipeline; failures
	// terminate with ErrFailed and partial provenance, never panics.
	a := newAssistant(t, Config{Model: llm.NewSim(llm.LocalSimConfig(4))})
	ans, err := a.Ask("At timestep 624, how does the slope and intrinsic scatter of the stellar-to-halo mass (SMHM) relation vary as a function of seed mass?")
	if ans == nil {
		t.Fatalf("no answer object: %v", err)
	}
	if ans.State.Usage.Total() == 0 {
		t.Error("no token usage")
	}
	if len(ans.Artifacts) == 0 {
		t.Error("no provenance artifacts")
	}
}

func TestAmbiguousStrategyRecorded(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("Can you make an inference on the direction of the FSN and VEL parameters in order to increase the halo count of the 100 largest halos in timestep 624? Also plot a summary of the differences in halo characteristics between the two simulations.")
	if err != nil {
		t.Fatalf("ambiguous run failed: %v", err)
	}
	if ans.State.Strategy < 0 || ans.State.Strategy > 2 {
		t.Errorf("strategy = %d", ans.State.Strategy)
	}
}

func TestMultipleQuestionsShareAssistant(t *testing.T) {
	a := newAssistant(t, Config{})
	first, err := a.Ask(preciseQ)
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Ask("What is the average gas mass (sod_halo_MGas500c) of halos at timestep 498 in simulation 0?")
	if err != nil {
		t.Fatal(err)
	}
	if first.SessionID == second.SessionID {
		t.Error("sessions must be distinct")
	}
	ids, err := a.Store().Sessions()
	if err != nil || len(ids) != 2 {
		t.Errorf("sessions = %v, %v", ids, err)
	}
}
