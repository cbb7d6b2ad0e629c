package rag_test

import (
	"encoding/json"
	"math"
	"testing"

	"infera/internal/eval"
	"infera/internal/llm"
	"infera/internal/rag"
)

// The incremental MMR returns what the O(k²·n) reference returns — the same
// documents in the same order with the same score bits — for every prompt
// the agents retrieve with: each evaluation-bank question as the query, each
// step of its plan as the delegated task, and the whole plan.
func TestMMRMatchesReference(t *testing.T) {
	ix := rag.BuildHACCIndex()
	r := rag.NewRetriever(ix)
	model := llm.NewSim(llm.SimConfig{Seed: 1})
	prompts := 0
	for _, q := range eval.Bank() {
		payload, err := json.Marshal(llm.PlanRequest{Question: q.Text})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := model.Complete(llm.Request{Agent: "planner", Skill: llm.SkillPlan, Prompt: string(payload)})
		if err != nil {
			t.Fatalf("%s: plan: %v", q.ID, err)
		}
		var plan llm.Plan
		if err := json.Unmarshal([]byte(resp.Text), &plan); err != nil {
			t.Fatalf("%s: plan: %v", q.ID, err)
		}
		set := []string{q.Text, plan.String()}
		for _, step := range plan.Steps {
			set = append(set, step.Task)
		}
		for pi, prompt := range set {
			prompts++
			ks := []int{r.PerPrompt, 1}
			if pi == 0 {
				ks = append(ks, ix.Len()+5) // every document picked; cubic in the reference
			}
			for _, k := range ks {
				got, want := ix.MMRAndReference(prompt, k, r.Lambda)
				if len(got) != len(want) {
					t.Fatalf("%s %q k=%d: %d documents, want %d", q.ID, prompt, k, len(got), len(want))
				}
				for i := range want {
					if got[i].Doc.ID != want[i].Doc.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("%s %q k=%d pick %d: %s %v, want %s %v", q.ID, prompt, k, i,
							got[i].Doc.ID, got[i].Score, want[i].Doc.ID, want[i].Score)
					}
				}
			}
		}
	}
	if prompts < 3*len(eval.Bank()) {
		t.Errorf("compared %d prompts over %d questions: plans came back empty", prompts, len(eval.Bank()))
	}
}
