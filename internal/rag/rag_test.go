package rag

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"infera/internal/hacc"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("sod_halo_MGas500c: mass enclosed, density 500x!")
	want := []string{"sod", "halo", "mgas500c", "mass", "enclosed", "density", "500x"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if n := TokenCount("a b c"); n != 3 {
		t.Errorf("TokenCount = %d", n)
	}
}

// FuzzTokenCount: TokenCount counts exactly the tokens Tokenize builds,
// for any bytes — invalid UTF-8 (a separator, as U+FFFD), non-ASCII
// letters and digits (token runes), and underscores (separators).
func FuzzTokenCount(f *testing.F) {
	for _, s := range []string{
		"",
		"sod_halo_MGas500c: mass enclosed, density 500x!",
		"__a__b__",
		"Größe der Halos ٣٤ Ⅻ 質量 x²",
		"\xff\xfeab\xc3(cd\xe2\x82",
		"a\u0301b ﬁ İı",
		" \t\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := TokenCount(s), len(Tokenize(s)); got != want {
			t.Fatalf("TokenCount(%q) = %d, Tokenize has %d tokens", s, got, want)
		}
	})
}

func TestTruncateTokens(t *testing.T) {
	text := "one two three four five"
	if got := TruncateTokens(text, 3); got != "one two three" {
		t.Errorf("TruncateTokens = %q", got)
	}
	if got := TruncateTokens(text, 10); got != text {
		t.Errorf("no-op truncate changed text: %q", got)
	}
}

func TestEmbedUnitNormAndDeterministic(t *testing.T) {
	v := Embed("friends of friends halo mass in Msun")
	w := Embed("friends of friends halo mass in Msun")
	var norm float64
	for i := range v {
		norm += v[i] * v[i]
		if v[i] != w[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("norm = %v, want 1", norm)
	}
	if len(v) != Dim {
		t.Errorf("dim = %d", len(v))
	}
}

func TestCosineSimilarityOrdering(t *testing.T) {
	a := Embed("halo mass friends of friends")
	b := Embed("total halo mass friends of friends in Msun")
	c := Embed("galaxy star formation rate per year")
	if Cosine(a, b) <= Cosine(a, c) {
		t.Errorf("related texts should score higher: %v vs %v", Cosine(a, b), Cosine(a, c))
	}
	if math.Abs(Cosine(a, a)-1) > 1e-9 {
		t.Errorf("self-cosine = %v", Cosine(a, a))
	}
}

func TestSearchFindsRelevantColumn(t *testing.T) {
	ix := BuildHACCIndex()
	hits := ix.Search("gas mass enclosed at 500 times critical density spherical overdensity", 5)
	found := false
	for _, h := range hits {
		if h.Doc.Meta["column"] == "sod_halo_MGas500c" {
			found = true
		}
	}
	if !found {
		t.Errorf("sod_halo_MGas500c not in top-5: %+v", ids(hits))
	}
}

func TestSearchHandlesAmbiguousLabelSemantics(t *testing.T) {
	// The paper's motivating example: a user asking about "largest halos"
	// by size should surface fof_halo_count even though "largest" appears
	// nowhere in the label.
	ix := BuildHACCIndex()
	hits := ix.Search("number of particles belonging to the halo, proxy for halo size, largest halos", 5)
	if len(hits) == 0 || !contains(hits, "fof_halo_count") {
		t.Errorf("fof_halo_count not retrieved: %v", ids(hits))
	}
}

func contains(hits []Scored, column string) bool {
	for _, h := range hits {
		if h.Doc.Meta["column"] == column {
			return true
		}
	}
	return false
}

func ids(hits []Scored) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Doc.ID
	}
	return out
}

func TestMMRDiversifies(t *testing.T) {
	ix := NewIndex()
	// Three near-duplicates and one distinct doc; MMR at k=2 should pick
	// one duplicate and the distinct doc, plain search picks two dupes.
	ix.Add(Document{ID: "a1", Text: "halo mass in Msun total mass"})
	ix.Add(Document{ID: "a2", Text: "halo mass in Msun the total mass"})
	ix.Add(Document{ID: "a3", Text: "halo mass in Msun total mass value"})
	ix.Add(Document{ID: "b", Text: "halo position coordinates mass center"})
	query := "halo mass"
	plain := ix.Search(query, 2)
	mmr := ix.MMR(query, 2, 0.5)
	if !strings.HasPrefix(plain[0].Doc.ID, "a") || !strings.HasPrefix(plain[1].Doc.ID, "a") {
		t.Skipf("plain search unexpectedly diverse: %v", ids(plain))
	}
	if mmr[1].Doc.ID != "b" {
		t.Errorf("MMR second pick = %s, want b (diversity)", mmr[1].Doc.ID)
	}
}

func TestIndexChunkTruncation(t *testing.T) {
	ix := NewIndex()
	long := strings.Repeat("word ", 200)
	ix.Add(Document{ID: "x", Text: long})
	if got := TokenCount(ix.Docs()[0].Text); got > MaxChunkTokens {
		t.Errorf("chunk has %d tokens, cap is %d", got, MaxChunkTokens)
	}
}

func TestRetrieverPolicy(t *testing.T) {
	ix := BuildHACCIndex()
	r := NewRetriever(ix)
	docs := r.Retrieve(
		"find the largest 100 halos by particle count at timestep 498",
		"load halo data and select relevant columns",
		"1. load data 2. filter halos 3. sort by count 4. plot",
	)
	if len(docs) == 0 || len(docs) > r.MaxDocs {
		t.Fatalf("retrieved %d docs (cap %d)", len(docs), r.MaxDocs)
	}
	seen := map[string]bool{}
	importantSeen := false
	for _, d := range docs {
		if seen[d.ID] {
			t.Fatalf("duplicate doc %s", d.ID)
		}
		seen[d.ID] = true
		if d.Important {
			importantSeen = true
		}
	}
	if !importantSeen {
		t.Error("important-tagged docs missing from retrieval")
	}
	cols := Columns(docs)
	if len(cols) == 0 {
		t.Fatal("no column refs extracted")
	}
	foundCount := false
	for _, c := range cols {
		if c.Column == "fof_halo_count" && c.FileType == hacc.FileHalos {
			foundCount = true
		}
	}
	if !foundCount {
		t.Error("fof_halo_count should be retrieved for a 'largest halos by particle count' query")
	}
}

// A Retriever built as a struct literal, with the important sub-index
// left unset, retrieves what NewRetriever's does, [IMPORTANT] prompt
// included.
func TestRetrieverLiteral(t *testing.T) {
	ix := BuildHACCIndex()
	lit := &Retriever{Index: ix, PerPrompt: 20, MaxDocs: 80, Lambda: 0.7}
	q := "top 20 largest halos at timestep 624 in simulation 1"
	got, want := lit.Retrieve(q, "", ""), NewRetriever(ix).Retrieve(q, "", "")
	if len(got) != len(want) {
		t.Fatalf("literal retrieves %d documents, NewRetriever %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Errorf("document %d: literal retrieves %s, NewRetriever %s", i, got[i].ID, want[i].ID)
		}
	}
}

func TestRetrieverEmptyPrompts(t *testing.T) {
	ix := BuildHACCIndex()
	r := NewRetriever(ix)
	docs := r.Retrieve("", "compute stellar mass for galaxies", "")
	if len(docs) == 0 {
		t.Fatal("task-only retrieval returned nothing")
	}
}

func TestFineGrainedBeatsNaiveChunking(t *testing.T) {
	// Ablation backing §3.1: per-column chunking should rank the target
	// column's content above naive fixed-window chunks for a pointed query.
	docs := BuildHACCIndex().Docs()
	fine := NewIndex()
	for _, d := range docs {
		fine.Add(d)
	}
	naive := NaiveChunks(docs, 80)
	query := "hot gas mass enclosed 500 times critical density"
	fineTop := fine.Search(query, 1)[0]
	naiveTop := naive.Search(query, 1)[0]
	if !strings.Contains(fineTop.Doc.Text, "MGas500c") {
		t.Errorf("fine-grained top doc wrong: %s", fineTop.Doc.ID)
	}
	// The naive chunk mixes unrelated columns; its top score should not
	// beat the focused chunk's score.
	if naiveTop.Score > fineTop.Score {
		t.Errorf("naive chunking outscored fine-grained: %v > %v", naiveTop.Score, fineTop.Score)
	}
}

func TestQuickCosineBounds(t *testing.T) {
	prop := func(a, b string) bool {
		va, vb := Embed(a), Embed(b)
		c := Cosine(va, vb)
		return c >= -1.000001 && c <= 1.000001 && !math.IsNaN(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMMRSubsetOfIndex(t *testing.T) {
	ix := BuildHACCIndex()
	prop := func(q string, kRaw uint8) bool {
		k := int(kRaw % 30)
		hits := ix.MMR(q, k, 0.7)
		if len(hits) > k {
			return false
		}
		seen := map[string]bool{}
		for _, h := range hits {
			if seen[h.Doc.ID] {
				return false
			}
			seen[h.Doc.ID] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
