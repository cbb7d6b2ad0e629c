package hacc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// FileEntry describes one data file in the ensemble catalog.
type FileEntry struct {
	Run   int    `json:"run"`
	Step  int    `json:"step"` // -1 for per-run files (merger tree)
	Type  string `json:"type"`
	Path  string `json:"path"` // absolute or catalog-dir-relative
	Bytes int64  `json:"bytes"`
	Rows  int    `json:"rows"`
}

// RunInfo describes one simulation run.
type RunInfo struct {
	Index  int    `json:"index"`
	Params Params `json:"params"`
	Dir    string `json:"dir"`
}

// Catalog is the ensemble index: what runs exist, with what sub-grid
// parameters, and which files hold which snapshot of which entity type.
// The data-loading agent plans its reads from this index alone — the
// ensemble-structure "dictionary" of §3.1 — never by scanning data files.
type Catalog struct {
	Dir   string      `json:"-"`
	Spec  Spec        `json:"spec"`
	Runs  []RunInfo   `json:"runs"`
	Files []FileEntry `json:"files"`
}

const catalogName = "ensemble.json"

func (c *Catalog) save() error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.Dir, catalogName), data, 0o644)
}

// Load reads an ensemble catalog from dir.
func Load(dir string) (*Catalog, error) {
	data, err := os.ReadFile(filepath.Join(dir, catalogName))
	if err != nil {
		return nil, fmt.Errorf("hacc: load catalog: %w", err)
	}
	c := &Catalog{Dir: dir}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("hacc: parse catalog: %w", err)
	}
	return c, nil
}

// AbsPath resolves a catalog file entry to an absolute path.
func (c *Catalog) AbsPath(e FileEntry) string {
	if filepath.IsAbs(e.Path) {
		return e.Path
	}
	return filepath.Join(c.Dir, e.Path)
}

// TotalBytes sums the on-disk size of every data file — the "source
// dataset size" denominator of the paper's storage-overhead metric.
func (c *Catalog) TotalBytes() int64 {
	var total int64
	for _, f := range c.Files {
		total += f.Bytes
	}
	return total
}

// Find returns the file entry for (run, step, typ).
func (c *Catalog) Find(run, step int, typ string) (FileEntry, bool) {
	for _, f := range c.Files {
		if f.Run == run && f.Step == step && f.Type == typ {
			return f, true
		}
	}
	return FileEntry{}, false
}

// FilesOf returns all entries matching the filters; run < 0 or step < -1
// or typ == "" match everything on that axis. Results are ordered by
// (run, step).
func (c *Catalog) FilesOf(run, step int, typ string) []FileEntry {
	var out []FileEntry
	for _, f := range c.Files {
		if run >= 0 && f.Run != run {
			continue
		}
		if step >= 0 && f.Step != step {
			continue
		}
		if typ != "" && f.Type != typ {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		return out[i].Step < out[j].Step
	})
	return out
}

// Steps returns the snapshot steps available in the catalog.
func (c *Catalog) Steps() []int {
	return append([]int(nil), c.Spec.Steps...)
}

// NumRuns returns the run count.
func (c *Catalog) NumRuns() int { return len(c.Runs) }

// Describe renders a human-readable summary used by the planning agent's
// context (runs, parameters, steps, file inventory). It names the ensemble
// by its directory's base name, so the text does not depend on where the
// ensemble is mounted.
func (c *Catalog) Describe() string {
	out := fmt.Sprintf("Ensemble at %s: %d runs, %d timesteps (steps %v), %d files, %.1f MB total\n",
		filepath.Base(c.Dir), len(c.Runs), len(c.Spec.Steps), c.Spec.Steps, len(c.Files), float64(c.TotalBytes())/1e6)
	for _, r := range c.Runs {
		out += fmt.Sprintf("  sim %d: %s\n", r.Index, r.Params)
	}
	return out
}
