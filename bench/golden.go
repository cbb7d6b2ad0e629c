package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"infera/internal/service"
)

// goldenAnswer pins one question's answer table: the digest of its CSV and
// its row count. With the low-error model stream the table is a function
// of the question and the fixture alone — the model seed moves token
// counts and QA retries, never the rows — so one entry covers every seed,
// and -update-golden proves that by answering each question under two.
type goldenAnswer struct {
	SHA256 string `json:"sha256"`
	Rows   int    `json:"rows"`
}

// golden is one workload's pinned answers, keyed by question text.
type golden struct {
	Workload string                  `json:"workload"`
	Fixture  string                  `json:"fixture"`
	Answers  map[string]goldenAnswer `json:"answers"`
}

func goldenPath(benchDir, workload string) string {
	return filepath.Join(benchDir, "golden", workload+".json")
}

func loadGolden(benchDir, workload string) (*golden, error) {
	data, err := os.ReadFile(goldenPath(benchDir, workload))
	if err != nil {
		return nil, fmt.Errorf("golden answers: %w (run with -update-golden to create them)", err)
	}
	g := &golden{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("golden answers %s: %w", goldenPath(benchDir, workload), err)
	}
	return g, nil
}

func (g *golden) save(benchDir string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	path := goldenPath(benchDir, g.Workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digest is the pinned form of an answer table.
func digest(answerCSV string, rows int) goldenAnswer {
	sum := sha256.Sum256([]byte(answerCSV))
	return goldenAnswer{SHA256: hex.EncodeToString(sum[:]), Rows: rows}
}

// check returns "" when res is a correct answer to a, else why it counts
// as failed: a transport error, a workflow error, an empty answer, or a
// table that differs from the pinned one. It is the single definition of
// "failed" for every path an ask can take (direct, routed, cached,
// disk-warm).
func (g *golden) check(a ask, res *service.AskResult, err error) string {
	switch {
	case err != nil:
		return "transport: " + err.Error()
	case res == nil:
		return "no result"
	case res.Error != "":
		return "workflow: " + res.Error
	case res.AnswerCSV == "" || res.Rows == 0:
		return "empty answer"
	}
	want, ok := g.Answers[a.key]
	if !ok {
		return "no golden answer for this question"
	}
	if got := digest(res.AnswerCSV, res.Rows); got != want {
		return fmt.Sprintf("golden mismatch: got %d rows sha256 %.12s, want %d rows sha256 %.12s",
			got.Rows, got.SHA256, want.Rows, want.SHA256)
	}
	return ""
}
