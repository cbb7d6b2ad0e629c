package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"

	"infera/internal/core"
	"infera/internal/llm"
)

// The §4.5 study questions.
const (
	// AmbiguousQuestion admits several valid analytical strategies.
	AmbiguousQuestion = "Can you make an inference on the direction of the FSN and VEL parameters in order to increase the halo count of the 100 largest halos in timestep 624? Also plot a summary of the differences in halo characteristics between the two simulations."
	// PreciseQuestion targets one entity and one characteristic and should
	// produce identical outputs on every run.
	PreciseQuestion = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"
)

// VariabilityResult summarizes the §4.5 comparison.
type VariabilityResult struct {
	Reps                int
	AmbiguousStrategies map[int]int // strategy index -> run count
	AmbiguousCompleted  int
	PreciseOutputs      map[string]int // output hash -> run count
	PreciseCompleted    int
}

// DistinctStrategies counts the analytical approaches the ambiguous
// question produced across runs.
func (v *VariabilityResult) DistinctStrategies() int { return len(v.AmbiguousStrategies) }

// PreciseIdentical reports whether every completed precise run produced
// bit-identical data output.
func (v *VariabilityResult) PreciseIdentical() bool { return len(v.PreciseOutputs) <= 1 }

// Format renders the study results.
func (v *VariabilityResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Analytical variability study (%d runs per question)\n\n", v.Reps)
	fmt.Fprintf(&sb, "Ambiguous question: %d/%d runs completed, %d distinct analytical strategies:\n",
		v.AmbiguousCompleted, v.Reps, v.DistinctStrategies())
	names := map[int]string{
		0: "mean characteristics of top halos per simulation with parameters",
		1: "linear correlation between parameters and halo counts",
		2: "correlation matrix across characteristic variables",
	}
	strategies := make([]int, 0, len(v.AmbiguousStrategies))
	for s := range v.AmbiguousStrategies {
		strategies = append(strategies, s)
	}
	sort.Ints(strategies)
	for _, s := range strategies {
		fmt.Fprintf(&sb, "  strategy %d (%s): %d runs\n", s, names[s], v.AmbiguousStrategies[s])
	}
	fmt.Fprintf(&sb, "\nPrecise question: %d/%d runs completed, identical outputs: %v (%d distinct)\n",
		v.PreciseCompleted, v.Reps, v.PreciseIdentical(), len(v.PreciseOutputs))
	return sb.String()
}

// Variability runs the §4.5 study: the ambiguous question should explore
// multiple valid strategies across runs while the precise question yields
// identical outputs.
func Variability(ensembleDir string, seed int64, reps int) (*VariabilityResult, error) {
	if reps <= 0 {
		reps = 10
	}
	out := &VariabilityResult{
		Reps:                reps,
		AmbiguousStrategies: map[int]int{},
		PreciseOutputs:      map[string]int{},
	}
	for r := 0; r < reps; r++ {
		// Ambiguous question.
		ans, err := askOnce(ensembleDir, AmbiguousQuestion, seed+int64(r))
		if err == nil && ans.State.Done {
			out.AmbiguousCompleted++
			out.AmbiguousStrategies[ans.State.Strategy]++
		}
		// Precise question.
		ans, err = askOnce(ensembleDir, PreciseQuestion, seed+1000+int64(r))
		if err == nil && ans.State.Done && ans.Answer != nil {
			out.PreciseCompleted++
			var buf bytes.Buffer
			if werr := ans.Answer.WriteCSV(&buf); werr == nil {
				sum := sha256.Sum256(buf.Bytes())
				out.PreciseOutputs[hex.EncodeToString(sum[:8])]++
			}
		}
	}
	return out, nil
}

func askOnce(ensembleDir, question string, seed int64) (*core.Answer, error) {
	workDir, err := os.MkdirTemp("", "infera-var-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	a, err := core.New(core.Config{
		EnsembleDir: ensembleDir,
		WorkDir:     workDir,
		Model:       llm.NewSim(llm.SimConfig{Seed: seed}),
	})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return a.Ask(question)
}
