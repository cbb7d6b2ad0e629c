package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"infera/internal/hacc"
)

// fixture is one generated ensemble. The data is the same for every
// --seed (the seed drives the questions, not the ensemble), which is what
// lets the answers be pinned in golden/.
type fixture struct {
	name string
	spec hacc.Spec
	// swapHalos also stores two extra copies of every halo snapshot under
	// swapDir, for the workload that replaces snapshots under load.
	swapHalos bool
}

// swapDir holds a fixture's swap copies, a/<path> and b/<path>. They are
// made once with the fixture so that no run has to write snapshot bytes:
// on the sandbox this was sized on, a run that wrote and deleted its own
// 100 MB of copies slowed the runs after it.
const swapDir = ".swap"

var (
	// ensWide: many small snapshots — 4 runs x 8 steps x 5000 halos. Every
	// column an ask touches fits the default stage budget many times over.
	ensWide = fixture{name: "ens_wide", spec: hacc.Spec{
		Runs: 4, Steps: hacc.StepRange(99, hacc.FinalStep, 75),
		HalosPerRun: 5000, ParticlesPerStep: 5000, BoxSize: 256, Seed: 1,
	}}
	// ensDeep: few large snapshots — 2 runs x 4 steps x 60000 halos, so one
	// ask's column set is megabytes and a small stage budget cannot hold two.
	ensDeep = fixture{name: "ens_deep", spec: hacc.Spec{
		Runs: 2, Steps: hacc.StepRange(99, hacc.FinalStep, 175),
		HalosPerRun: 60000, ParticlesPerStep: 2000, BoxSize: 256, Seed: 1,
	}, swapHalos: true}
)

// dir is the fixture's directory under root, keyed by a hash of its spec
// so a changed spec never reuses stale data.
func (f fixture) dir(root string) string {
	raw, _ := json.Marshal(f.spec) // a struct of numbers cannot fail to marshal
	sum := sha256.Sum256(raw)
	return filepath.Join(root, "fixtures", f.name+"-"+hex.EncodeToString(sum[:6]))
}

// ensure generates the fixture under root unless a complete copy is
// already there, and returns the generation time (0 when reused).
// Generation goes to a temporary sibling and is renamed into place, so an
// interrupted run never leaves a half-written fixture behind.
func (f fixture) ensure(root string) (time.Duration, error) {
	dir := f.dir(root)
	if _, err := hacc.Load(dir); err == nil {
		return 0, nil
	}
	start := time.Now()
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), f.name+"-gen-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	cat, err := hacc.Generate(tmp, f.spec)
	if err != nil {
		return 0, fmt.Errorf("generate %s: %w", f.name, err)
	}
	if f.swapHalos {
		for _, h := range cat.FilesOf(-1, -1, hacc.FileHalos) {
			for _, side := range []string{"a", "b"} {
				dst := filepath.Join(tmp, swapDir, side, h.Path)
				if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
					return 0, err
				}
				if err := copyFile(cat.AbsPath(h), dst); err != nil {
					return 0, err
				}
			}
		}
	}
	if err := os.Rename(tmp, dir); err != nil {
		// Another process finished the same fixture first: use theirs.
		if _, lerr := hacc.Load(dir); lerr != nil {
			return 0, fmt.Errorf("install %s: %w", f.name, err)
		}
	}
	return time.Since(start), nil
}

// privateCopy mirrors the ensemble at src into dst with hard links
// (falling back to a byte copy across devices), leaving the swap copies
// out. A workload that replaces snapshots works on such a copy: replacing
// a link never touches the shared fixture's own directory.
func privateCopy(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == swapDir {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return linkOrCopy(path, filepath.Join(dst, rel))
	})
}

func linkOrCopy(src, dst string) error {
	if os.Link(src, dst) == nil {
		return nil
	}
	return copyFile(src, dst)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sparePath is where the spare copy of an ensemble file lives: in a tree
// beside the ensemble directory, because anything that appears and
// disappears inside the ensemble races the service's fingerprint walk.
func sparePath(ensembleDir, path string) string {
	rel, err := filepath.Rel(ensembleDir, path)
	if err != nil {
		rel = filepath.Base(path)
	}
	return filepath.Join(ensembleDir+".spare", rel)
}

// makeSwappable points the private ensemble's file rel at the fixture's
// swap copy a and parks copy b at its spare path, so swapInPlace can
// replace the file, again and again, by moving directory entries only.
func makeSwappable(fixtureDir, privateDir, rel string) error {
	path := filepath.Join(privateDir, rel)
	spare := sparePath(privateDir, path)
	if err := os.MkdirAll(filepath.Dir(spare), 0o755); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	if err := linkOrCopy(filepath.Join(fixtureDir, swapDir, "a", rel), path); err != nil {
		return err
	}
	return linkOrCopy(filepath.Join(fixtureDir, swapDir, "b", rel), spare)
}

// swapInPlace atomically replaces path with its spare copy and stamps it
// with the current time: readers see a new inode and a new mtime over
// identical bytes — what a re-run post-processing step does to a snapshot,
// and the event the stage cache must notice. The replaced file becomes the
// next spare, so the swap moves directory entries only (the two inodes are
// the fixture's swap copies, shared by every run, so only one run at a
// time should swap them). A churn that wrote the 7 MB anew each time spent
// 100-450 ms per rewrite in the file system of the sandbox this was sized
// on, and made the workload measure that.
func swapInPlace(path, spare string) error {
	old := spare + ".old"
	if err := os.Link(path, old); err != nil {
		return err
	}
	if err := os.Rename(spare, path); err != nil {
		return err
	}
	if err := os.Rename(old, spare); err != nil {
		return err
	}
	now := time.Now()
	return os.Chtimes(path, now, now)
}
