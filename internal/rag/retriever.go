package rag

import "infera/internal/hacc"

// BuildHACCIndex chunks the HACC metadata dictionaries into the retrieval
// index: one document per (file type, column) pair plus one per file
// family. Column documents carry the column label, its file type and the
// dictionary description; the Important flag follows the dictionary tag.
func BuildHACCIndex() *Index {
	ix := NewIndex()
	for _, fd := range hacc.FileDictionary() {
		ix.Add(Document{
			ID:   "file/" + fd.FileType,
			Text: fd.FileType + ": " + fd.Description,
			Meta: map[string]string{"kind": "file", "file_type": fd.FileType},
		})
	}
	for _, cd := range hacc.ColumnDictionary() {
		ix.Add(Document{
			ID:   cd.FileType + "/" + cd.Column,
			Text: cd.Column + ": " + cd.Description,
			Meta: map[string]string{
				"kind":      "column",
				"file_type": cd.FileType,
				"column":    cd.Column,
			},
			Important: cd.Important,
		})
	}
	return ix
}

// Retriever applies the multi-prompt retrieval policy of §3.1. Build one
// with NewRetriever, over an index that is complete: the sub-index of its
// important-tagged documents is taken then.
type Retriever struct {
	Index     *Index
	PerPrompt int     // top-k per prompt (paper: 20)
	MaxDocs   int     // global cap across prompts (paper: 80)
	Lambda    float64 // MMR relevance/diversity trade-off

	important *Index // Index's Important documents, for the "[IMPORTANT]" prompt
}

// NewRetriever returns a retriever over ix with the paper's defaults.
func NewRetriever(ix *Index) *Retriever {
	return &Retriever{Index: ix, PerPrompt: 20, MaxDocs: 80, Lambda: 0.7, important: importantDocs(ix)}
}

// importantDocs indexes the important-tagged documents of ix.
func importantDocs(ix *Index) *Index {
	important := NewIndex()
	for _, d := range ix.docs {
		if d.Important {
			important.Add(d)
		}
	}
	return important
}

// Retrieve runs MMR retrieval for each non-empty prompt — the original user
// query, the delegated task, the complete plan — plus the "[IMPORTANT]"
// prompt that pulls in columns tagged important, deduplicating by document
// ID up to MaxDocs. Order reflects first retrieval rank.
func (r *Retriever) Retrieve(query, task, plan string) []Document {
	seen := map[string]bool{}
	var out []Document
	add := func(docs []Scored) {
		for _, s := range docs {
			if len(out) >= r.MaxDocs {
				return
			}
			if seen[s.Doc.ID] {
				continue
			}
			seen[s.Doc.ID] = true
			out = append(out, s.Doc)
		}
	}
	for _, prompt := range []string{query, task, plan} {
		if prompt == "" {
			continue
		}
		add(r.Index.MMR(prompt, r.PerPrompt, r.Lambda))
	}
	// The [IMPORTANT] prompt: important-tagged documents ranked against the
	// user query.
	if r.important.Len() > 0 {
		q := query
		if q == "" {
			q = task
		}
		add(r.important.Search("[IMPORTANT] "+q, r.PerPrompt))
	}
	return out
}

// Columns extracts the distinct (fileType, column) pairs from retrieved
// documents, preserving order.
func Columns(docs []Document) []ColumnRef {
	var out []ColumnRef
	seen := map[string]bool{}
	for _, d := range docs {
		if d.Meta["kind"] != "column" {
			continue
		}
		key := d.Meta["file_type"] + "/" + d.Meta["column"]
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, ColumnRef{FileType: d.Meta["file_type"], Column: d.Meta["column"]})
	}
	return out
}

// ColumnRef names a column within a file family.
type ColumnRef struct {
	FileType string
	Column   string
}
