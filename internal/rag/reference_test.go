package rag

import (
	"math"
	"testing"
)

// MMRAndReference runs MMR and its reference over one embedding of query
// (Embed sums hash buckets in map order, so two embeddings of one text can
// differ in the last bit). It is what the external tests compare.
func (ix *Index) MMRAndReference(query string, k int, lambda float64) (got, want []Scored) {
	q := Embed(query)
	return ix.mmr(q, k, lambda), ix.referenceMMR(q, k, lambda)
}

// referenceMMR is mmr as it was before the running redundancy: every pick
// recomputes each candidate's max similarity to all earlier picks, O(k²·n)
// Cosine calls.
func (ix *Index) referenceMMR(q []float64, k int, lambda float64) []Scored {
	if k > len(ix.docs) {
		k = len(ix.docs)
	}
	rel := make([]float64, len(ix.docs))
	for i := range ix.docs {
		rel[i] = Cosine(q, ix.vecs[i])
	}
	picked := make([]int, 0, k)
	used := make([]bool, len(ix.docs))
	out := make([]Scored, 0, k)
	for len(picked) < k {
		best, bestScore := -1, math.Inf(-1)
		for i := range ix.docs {
			if used[i] {
				continue
			}
			redundancy := 0.0
			for _, p := range picked {
				if s := Cosine(ix.vecs[i], ix.vecs[p]); s > redundancy {
					redundancy = s
				}
			}
			score := lambda*rel[i] - (1-lambda)*redundancy
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		picked = append(picked, best)
		out = append(out, Scored{Doc: ix.docs[best], Score: bestScore})
	}
	return out
}

// Retrieve must not rebuild the [IMPORTANT] sub-index: a call allocates
// less than building that index once does (embedding every important
// document is thousands of allocations; a retrieval embeds four prompts).
func TestRetrieveBuildsNoIndex(t *testing.T) {
	ix := BuildHACCIndex()
	r := NewRetriever(ix)
	if r.important.Len() == 0 {
		t.Fatal("the HACC index has no important documents: nothing to test")
	}
	build := testing.AllocsPerRun(5, func() { importantDocs(ix) })
	retrieve := testing.AllocsPerRun(5, func() {
		r.Retrieve("top 20 largest halos at timestep 624 in simulation 1",
			"load fof_halo_tag and fof_halo_mass", "1. [dataloader] load\n2. [sql] rank\n")
	})
	if retrieve >= build {
		t.Errorf("Retrieve allocates %.0f times a call, building the important index %.0f: it still builds one", retrieve, build)
	}
}
