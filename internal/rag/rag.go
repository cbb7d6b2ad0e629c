// Package rag implements the retrieval-augmented metadata lookup of §3.1:
// the column and file dictionaries are chunked into one small document per
// column label (at most 80 tokens), embedded with a deterministic hashed
// bag-of-words model (standing in for text-embedding-3-small), and
// retrieved with cosine similarity re-ranked by maximum marginal relevance
// (MMR). The Retriever applies the paper's multi-prompt policy: top-k for
// the user query, the delegated task, the full plan, and an "[IMPORTANT]"
// prompt that surfaces columns tagged important, up to a global cap.
//
// An embedding has a few dozen nonzero entries of Dim, and none negative,
// so the index scores over the nonzeros of one side: every product it
// skips is an exact +0 that leaves each partial sum as it was, and every
// score is the same float64 that Cosine returns for the dense vectors.
package rag

import (
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
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
		if isTokenRune(r) {
			sb.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// TokenCount returns len(Tokenize(text)) without building the tokens: it
// counts the characters that start a token, in one pass with no
// allocation. The llm package uses it for usage accounting, and chunking
// uses it for the 80-token budget.
func TokenCount(text string) int {
	n := 0
	var in uint8 // 1 inside a token
	for i := 0; i < len(text); {
		var tok uint8
		if c := text[i]; c < utf8.RuneSelf {
			tok = tokenASCII[c]
			i++
		} else {
			// As range over a string does: an invalid byte decodes to
			// utf8.RuneError, of width 1, which is no token rune.
			r, size := utf8.DecodeRuneInString(text[i:])
			if isTokenRune(r) {
				tok = 1
			}
			i += size
		}
		n += int(tok &^ in)
		in = tok
	}
	return n
}

// isTokenRune reports whether r belongs to a token: a letter or a digit.
func isTokenRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// tokenASCII is isTokenRune over the ASCII bytes, as 1 or 0.
var tokenASCII = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		if isTokenRune(rune(c)) {
			t[c] = 1
		}
	}
	return t
}()

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

// Cosine returns the cosine similarity of two equal-length vectors. It is
// the reference for the index's sparse cosine, which returns the same bits
// for embeddings.
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
		isTok := isTokenRune(r)
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

// Index is an in-memory vector index over documents. Each document's
// embedding is stored with its nonzero positions and squared norm, so a
// score costs one product per nonzero of the sparser side (cosine).
type Index struct {
	docs []Document
	vecs []embedding
}

// embedding is a dense vector with its nonzero positions, ascending, and
// its squared norm summed in index order, as Cosine sums it. A uint8
// indexes every entry of a Dim-array (the constant below fails to compile
// otherwise), so the dot product's loads need no bounds checks.
type embedding struct {
	v     *[Dim]float64
	nz    []uint8
	norm2 float64
}

const _ = uint8(Dim - 1)

func newEmbedding(v []float64) embedding {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	e := embedding{v: (*[Dim]float64)(v), nz: make([]uint8, 0, n)}
	for i, x := range v {
		if x != 0 {
			e.nz = append(e.nz, uint8(i))
			e.norm2 += x * x
		}
	}
	return e
}

// cosine returns Cosine(a.v, b.v), bit for bit. Entries are never
// negative, so the partial sums of the dot product never hold −0, and
// the products skipped where the sparser side is zero are +0 additions
// that change none of them; the norms are Cosine's sums.
func cosine(a, b *embedding) float64 {
	if a.norm2 == 0 || b.norm2 == 0 {
		return 0
	}
	if len(b.nz) < len(a.nz) {
		a, b = b, a
	}
	var dot float64
	for _, i := range a.nz {
		dot += a.v[i] * b.v[i]
	}
	return dot / math.Sqrt(a.norm2*b.norm2)
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{} }

// Add embeds and stores doc, truncating its text to MaxChunkTokens first —
// the fine-grained chunking rule that keeps each column's description a
// separate retrieval unit.
func (ix *Index) Add(doc Document) {
	doc.Text = TruncateTokens(doc.Text, MaxChunkTokens)
	ix.docs = append(ix.docs, doc)
	ix.vecs = append(ix.vecs, newEmbedding(Embed(doc.Text)))
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
	return ix.search(newEmbedding(Embed(query)), k)
}

// search is Search over an embedded query.
func (ix *Index) search(q embedding, k int) []Scored {
	scored := make([]Scored, len(ix.docs))
	for i := range ix.docs {
		scored[i] = Scored{Doc: ix.docs[i], Score: cosine(&q, &ix.vecs[i])}
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
// pick, so a pick costs one cosine per remaining candidate.
func (ix *Index) MMR(query string, k int, lambda float64) []Scored {
	return ix.mmr(newEmbedding(Embed(query)), k, lambda)
}

// mmr is MMR over an embedded query. Relevance (query × document) and
// redundancy (document × pick) are the sparse cosine, so each score is
// the one Cosine gives over the dense vectors.
func (ix *Index) mmr(q embedding, k int, lambda float64) []Scored {
	if k > len(ix.docs) {
		k = len(ix.docs)
	}
	rel := make([]float64, len(ix.docs))
	for i := range ix.docs {
		rel[i] = cosine(&q, &ix.vecs[i])
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
			if s := cosine(&ix.vecs[i], &ix.vecs[best]); s > redundancy[i] {
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
