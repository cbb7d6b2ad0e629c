package rag_test

import (
	"encoding/json"
	"math"
	"testing"

	"infera/internal/eval"
	"infera/internal/llm"
	"infera/internal/rag"
)

// bankAsk is one evaluation-bank question with the plan the simulated
// planner proposes for it: the prompts the agents retrieve with.
type bankAsk struct {
	question string
	plan     string
	tasks    []string // the plan's step tasks, each a delegated task
}

func bankAsks(tb testing.TB) []bankAsk {
	tb.Helper()
	model := llm.NewSim(llm.SimConfig{Seed: 1})
	var asks []bankAsk
	for _, q := range eval.Bank() {
		payload, err := json.Marshal(llm.PlanRequest{Question: q.Text})
		if err != nil {
			tb.Fatal(err)
		}
		resp, err := model.Complete(llm.Request{Agent: "planner", Skill: llm.SkillPlan, Prompt: string(payload)})
		if err != nil {
			tb.Fatalf("%s: plan: %v", q.ID, err)
		}
		var plan llm.Plan
		if err := json.Unmarshal([]byte(resp.Text), &plan); err != nil {
			tb.Fatalf("%s: plan: %v", q.ID, err)
		}
		ask := bankAsk{question: q.Text, plan: plan.String()}
		for _, step := range plan.Steps {
			ask.tasks = append(ask.tasks, step.Task)
		}
		asks = append(asks, ask)
	}
	return asks
}

// MMR and Search return what their references return — the same documents
// in the same order with the same score bits — for every prompt the agents
// retrieve with: each evaluation-bank question as the query, each step of
// its plan as the delegated task, and the whole plan. The references are
// the O(k²·n) MMR and a stable sort, both over the dense Cosine. Both the
// per-column index and NaiveChunks' fixed windows are compared; the
// per-column one holds a document whose text embeds to the zero vector,
// and one prompt embeds to it too.
func TestMMRMatchesReference(t *testing.T) {
	ix := rag.BuildHACCIndex()
	ix.Add(rag.Document{ID: "punctuation", Text: "-- (·) --"})
	naive := rag.NaiveChunks(ix.Docs(), rag.MaxChunkTokens)
	r := rag.NewRetriever(ix)
	prompts := 0
	for ai, ask := range bankAsks(t) {
		set := append([]string{ask.question, ask.plan}, ask.tasks...)
		if ai == 0 {
			set = append(set, "?!")
		}
		for pi, prompt := range set {
			prompts++
			for _, idx := range []*rag.Index{ix, naive} {
				ks := []int{r.PerPrompt, 1}
				if pi == 0 {
					ks = append(ks, idx.Len()+5) // every document picked; cubic in the reference
				}
				for _, k := range ks {
					got, want := idx.MMRAndReference(prompt, k, r.Lambda)
					sameScored(t, "MMR", prompt, k, got, want)
					got, want = idx.SearchAndReference(prompt, k)
					sameScored(t, "Search", prompt, k, got, want)
				}
			}
		}
	}
	if prompts < 3*len(eval.Bank()) {
		t.Errorf("compared %d prompts over %d questions: plans came back empty", prompts, len(eval.Bank()))
	}
}

func sameScored(t *testing.T, what, prompt string, k int, got, want []rag.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %q k=%d: %d documents, want %d", what, prompt, k, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc.ID != want[i].Doc.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s %q k=%d pick %d: %s %v, want %s %v", what, prompt, k, i,
				got[i].Doc.ID, got[i].Score, want[i].Doc.ID, want[i].Score)
		}
	}
}

// BenchmarkRetrieve is one agent retrieval round per bank question and
// plan step: the user query, the step's task and the whole plan, over the
// HACC dictionary index.
func BenchmarkRetrieve(b *testing.B) {
	r := rag.NewRetriever(rag.BuildHACCIndex())
	asks := bankAsks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ask := range asks {
			for _, task := range ask.tasks {
				retrieved = r.Retrieve(ask.question, task, ask.plan)
			}
		}
	}
}

var retrieved []rag.Document
