// Package rag implements the retrieval-augmented metadata lookup of §3.1:
// the column and file dictionaries are chunked into one small document per
// column label (at most 80 tokens), embedded with a deterministic hashed
// bag-of-words model (standing in for text-embedding-3-small), and
// retrieved with cosine similarity re-ranked by maximum marginal relevance
// (MMR). The Retriever applies the paper's multi-prompt policy: top-k for
// the user query, the delegated task, the full plan, and an "[IMPORTANT]"
// prompt that surfaces columns tagged important, up to a global cap.
package rag

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Dim is the embedding dimensionality.
const Dim = 256

// Tokenize lower-cases text and splits it on non-alphanumeric boundaries,
// including underscores, so column labels like "sod_halo_MGas500c" yield
// searchable parts ("sod", "halo", "mgas500c").
func Tokenize(text string) []string {
	var toks []string
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			toks = append(toks, sb.String())
			sb.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sb.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// TokenCount returns the token count of text; the llm package uses it for
// usage accounting, and chunking uses it for the 80-token budget.
func TokenCount(text string) int { return len(Tokenize(text)) }

// fnv1a hashes a string to a bucket in [0, Dim).
func fnv1a(s string) int {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return int(h % Dim)
}

// Embed maps text to a unit-norm Dim-dimensional vector from hashed
// unigrams and bigrams with sub-linear term-frequency weighting.
func Embed(text string) []float64 {
	toks := Tokenize(text)
	counts := map[string]float64{}
	for i, t := range toks {
		counts[t]++
		if i+1 < len(toks) {
			counts[t+" "+toks[i+1]] += 0.5
		}
	}
	vec := make([]float64, Dim)
	for term, c := range counts {
		vec[fnv1a(term)] += 1 + math.Log(c)
	}
	norm := 0.0
	for _, v := range vec {
		norm += v * v
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range vec {
			vec[i] /= norm
		}
	}
	return vec
}

// Cosine returns the cosine similarity of two equal-length vectors.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Document is one retrievable chunk.
type Document struct {
	ID        string            // unique id, e.g. "haloproperties/fof_halo_mass"
	Text      string            // the chunk content (≤ MaxChunkTokens enforced at Add)
	Meta      map[string]string // free-form metadata (column, file type, ...)
	Important bool              // tagged for the "[IMPORTANT]" retrieval prompt
}

// MaxChunkTokens is the per-document token budget of §3.1.
const MaxChunkTokens = 80

// TruncateTokens returns text cut to at most n tokens (whole tokens,
// original casing preserved).
func TruncateTokens(text string, n int) string {
	if TokenCount(text) <= n {
		return text
	}
	count := 0
	inTok := false
	for i, r := range text {
		isTok := unicode.IsLetter(r) || unicode.IsDigit(r)
		if isTok && !inTok {
			count++
			if count > n {
				return strings.TrimRight(text[:i], " \t\n")
			}
		}
		inTok = isTok
	}
	return text
}

// Index is an in-memory vector index over documents.
type Index struct {
	docs []Document
	vecs [][]float64
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{} }

// Add embeds and stores doc, truncating its text to MaxChunkTokens first —
// the fine-grained chunking rule that keeps each column's description a
// separate retrieval unit.
func (ix *Index) Add(doc Document) {
	doc.Text = TruncateTokens(doc.Text, MaxChunkTokens)
	ix.docs = append(ix.docs, doc)
	ix.vecs = append(ix.vecs, Embed(doc.Text))
}

// Len returns the document count.
func (ix *Index) Len() int { return len(ix.docs) }

// Docs returns the stored documents.
func (ix *Index) Docs() []Document { return append([]Document(nil), ix.docs...) }

// Scored pairs a document with its retrieval score.
type Scored struct {
	Doc   Document
	Score float64
}

// Search returns the top-k documents by cosine similarity to query.
func (ix *Index) Search(query string, k int) []Scored {
	q := Embed(query)
	scored := make([]Scored, len(ix.docs))
	for i := range ix.docs {
		scored[i] = Scored{Doc: ix.docs[i], Score: Cosine(q, ix.vecs[i])}
	}
	sort.SliceStable(scored, func(a, b int) bool { return scored[a].Score > scored[b].Score })
	if k > len(scored) {
		k = len(scored)
	}
	return scored[:k]
}

// MMR returns k documents selected by maximum marginal relevance: each pick
// maximizes lambda·sim(query, d) − (1−lambda)·max sim(d, already picked),
// trading relevance against redundancy (Carbonell & Goldstein 1998). Each
// document's max similarity to the picked set is carried from pick to
// pick, so a pick costs one Cosine per remaining candidate.
func (ix *Index) MMR(query string, k int, lambda float64) []Scored {
	return ix.mmr(Embed(query), k, lambda)
}

// mmr is MMR over an embedded query.
func (ix *Index) mmr(q []float64, k int, lambda float64) []Scored {
	if k > len(ix.docs) {
		k = len(ix.docs)
	}
	rel := make([]float64, len(ix.docs))
	for i := range ix.docs {
		rel[i] = Cosine(q, ix.vecs[i])
	}
	redundancy := make([]float64, len(ix.docs)) // max sim to any pick so far
	used := make([]bool, len(ix.docs))
	out := make([]Scored, 0, k)
	for len(out) < k {
		best, bestScore := -1, math.Inf(-1)
		for i := range ix.docs {
			if used[i] {
				continue
			}
			score := lambda*rel[i] - (1-lambda)*redundancy[i]
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, Scored{Doc: ix.docs[best], Score: bestScore})
		if len(out) == k {
			break
		}
		for i := range ix.docs {
			if used[i] {
				continue
			}
			if s := Cosine(ix.vecs[i], ix.vecs[best]); s > redundancy[i] {
				redundancy[i] = s
			}
		}
	}
	return out
}

// NaiveChunks concatenates all document texts and re-splits them into
// fixed-size token windows, ignoring content boundaries — the conventional
// size-based chunking the paper argues against. It exists for the ablation
// benchmark comparing retrieval precision.
func NaiveChunks(docs []Document, window int) *Index {
	var all []string
	for _, d := range docs {
		all = append(all, Tokenize(d.Text)...)
	}
	ix := NewIndex()
	for i := 0; i < len(all); i += window {
		j := i + window
		if j > len(all) {
			j = len(all)
		}
		ix.Add(Document{
			ID:   "chunk-" + itoa(i/window),
			Text: strings.Join(all[i:j], " "),
		})
	}
	return ix
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
