package eval

import (
	"strings"
	"testing"

	"infera/internal/hacc"
)

func TestBankMarginalsMatchPaper(t *testing.T) {
	qs := Bank()
	if len(qs) != 20 {
		t.Fatalf("bank has %d questions, want 20", len(qs))
	}
	ana := CountBy(qs, func(q Question) Difficulty { return q.Analysis })
	if ana[Easy] != 6 || ana[Medium] != 6 || ana[Hard] != 8 {
		t.Errorf("analysis marginals = %v, want 6/6/8", ana)
	}
	sem := CountBy(qs, func(q Question) Difficulty { return q.Semantic })
	if sem[Easy] != 8 || sem[Medium] != 5 || sem[Hard] != 7 {
		t.Errorf("semantic marginals = %v, want 8/5/7", sem)
	}
	spans := map[string]int{}
	for _, q := range qs {
		key := ""
		if q.MultiSim {
			key = "M"
		} else {
			key = "S"
		}
		if q.MultiStep {
			key += "M"
		} else {
			key += "S"
		}
		spans[key]++
	}
	if spans["SS"] != 7 || spans["SM"] != 5 || spans["MS"] != 5 || spans["MM"] != 3 {
		t.Errorf("span marginals = %v, want 7/5/5/3", spans)
	}
	// Analysis-easy implies semantic-easy (paper: no Easy-Medium or
	// Easy-Hard combinations).
	for _, q := range qs {
		if q.Analysis == Easy && q.Semantic != Easy {
			t.Errorf("%s: easy analysis with %s semantic", q.ID, q.Semantic)
		}
	}
	ids := map[string]bool{}
	for _, q := range qs {
		if ids[q.ID] {
			t.Errorf("duplicate id %s", q.ID)
		}
		ids[q.ID] = true
	}
}

func TestFormatTable1(t *testing.T) {
	s := FormatTable1(Bank())
	if !strings.Contains(s, "n/a") {
		t.Error("matrix should mark empty easy-analysis cells n/a")
	}
	if !strings.Contains(s, "fof_halo_count") {
		t.Error("representative questions missing")
	}
}

// TestVariabilityFormatDeterministic: the §4.5 report lists strategies in
// index order, so one result always formats to one string.
func TestVariabilityFormatDeterministic(t *testing.T) {
	res := &VariabilityResult{
		Reps:                6,
		AmbiguousStrategies: map[int]int{2: 4, 0: 1, 1: 1},
		AmbiguousCompleted:  6,
		PreciseOutputs:      map[string]int{"ab": 6},
		PreciseCompleted:    6,
	}
	want := res.Format()
	for i := 0; i < 50; i++ {
		if got := res.Format(); got != want {
			t.Fatalf("format %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	if i0, i1, i2 := strings.Index(want, "strategy 0"), strings.Index(want, "strategy 1"), strings.Index(want, "strategy 2"); i0 < 0 || i0 > i1 || i1 > i2 {
		t.Fatalf("strategies not in index order:\n%s", want)
	}
}

func evalEnsemble(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{
		Runs:             2,
		Steps:            []int{99, 350, 498, 624},
		HalosPerRun:      80,
		ParticlesPerStep: 50,
		BoxSize:          128,
		Seed:             13,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSmallCampaignProducesSaneMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short")
	}
	dir := evalEnsemble(t)
	rep, err := Run(Config{
		EnsembleDir: dir,
		Questions:   Bank()[:6], // the six easy questions
		Reps:        2,
		Seed:        21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 12 {
		t.Fatalf("records = %d", len(rep.Records))
	}
	total := rep.Total()
	if total.Runs != 12 {
		t.Errorf("total runs = %d", total.Runs)
	}
	if total.Completed < 50 {
		t.Errorf("easy questions completing only %.0f%%", total.Completed)
	}
	if total.Tokens <= 0 || total.StorageMB <= 0 {
		t.Errorf("resource metrics empty: %+v", total)
	}
	out := rep.Format()
	for _, want := range []string{"Analysis Difficulty", "Semantic Complexity", "Total", "Unsuccessful"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestRowsCoverAllSections(t *testing.T) {
	rep := &Report{Reps: 1}
	rep.Records = append(rep.Records, RunRecord{
		Question:  Bank()[0],
		Completed: true, Completeness: 1, Tokens: 100,
		Judgment: Judgment{DataSatisfactory: true},
	})
	rows := rep.Rows()
	if len(rows) != 13 { // 3 + 3 + 4 + 3
		t.Errorf("rows = %d, want 13", len(rows))
	}
	// The easy/analysis row carries the record.
	if rows[0].Runs != 1 || rows[0].SatData != 100 {
		t.Errorf("row0 = %+v", rows[0])
	}
	// Empty category rows stay zero without dividing by zero.
	if rows[2].Runs != 0 || rows[2].Tokens != 0 {
		t.Errorf("hard row = %+v", rows[2])
	}
}
