package stage

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// watchBackends are the directory watchers the event table runs against:
// the platform's own (inotify on Linux) and the poller, polling often so
// the table runs fast.
var watchBackends = []struct {
	name string
	new  func(onEvent func(path string, dir bool), onOverflow func()) (watcher, error)
}{
	{"native", newWatcher},
	{"poll", func(onEvent func(path string, dir bool), _ func()) (watcher, error) {
		return newPollWatcher(onEvent, 10*time.Millisecond), nil
	}},
}

// watchWith turns c's watch on with the given backend.
func watchWith(t *testing.T, c *Cache, mk func(func(string, bool), func()) (watcher, error)) {
	t.Helper()
	w, err := mk(c.onFileEvent, c.onWatchOverflow)
	if err != nil {
		t.Fatalf("watcher: %v", err)
	}
	c.mu.Lock()
	c.watch = w
	c.mu.Unlock()
}

func isPinned(c *Cache, path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.pinned[path]
	return ok
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settle waits until c's generation for root has not moved for 100 ms,
// so events still in flight from a perturbation are delivered, and
// returns it.
func settle(t *testing.T, c *Cache, root string) uint64 {
	t.Helper()
	g := c.Generation(root)
	for quiet := time.Now(); time.Since(quiet) < 100*time.Millisecond; time.Sleep(5 * time.Millisecond) {
		if n := c.Generation(root); n != g {
			g, quiet = n, time.Now()
		}
	}
	return g
}

// TestDirectoryEvents runs one table of perturbations under a watched
// ensemble root against both watch backends. Every perturbation moves the
// root's generation; one that touches a pinned file unpins it, so the next
// lookup reads the new bytes; one that only adds or removes other entries
// leaves the pins alone; and a directory created under the root is
// watched, so a later change inside it moves the generation again.
func TestDirectoryEvents(t *testing.T) {
	cases := []struct {
		name string
		// perturb changes the tree; a and b are the pinned snapshots
		// root/a.gio and root/sub/b.gio.
		perturb func(t *testing.T, root, a, b string)
		// unpinned is the pinned file the change must unpin, if any.
		unpinned func(a, b string) string
		// check runs once the change was seen.
		check func(t *testing.T, c *Cache, root, a, b string)
	}{
		{"modify", func(t *testing.T, root, a, b string) {
			rewrite(t, root, "a.gio", 500)
		}, func(a, b string) string { return a }, readsFill(500)},
		{"rename over", func(t *testing.T, root, a, b string) {
			src := rewrite(t, t.TempDir(), "a.gio", 700)
			if err := os.Rename(src, a); err != nil {
				t.Fatal(err)
			}
		}, func(a, b string) string { return a }, readsFill(700)},
		{"create", func(t *testing.T, root, a, b string) {
			if err := os.WriteFile(filepath.Join(root, "new.bin"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, nil, nil},
		{"delete", func(t *testing.T, root, a, b string) {
			if err := os.Remove(filepath.Join(root, "other.bin")); err != nil {
				t.Fatal(err)
			}
		}, nil, nil},
		{"new subdirectory", func(t *testing.T, root, a, b string) {
			if err := os.Mkdir(filepath.Join(root, "fresh"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, "fresh", "c.bin"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, nil, func(t *testing.T, c *Cache, root, a, b string) {
			g := settle(t, c, root)
			later := time.Now().Add(2 * time.Second)
			if err := os.Chtimes(filepath.Join(root, "fresh", "c.bin"), later, later); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "an event from inside the new directory", func() bool { return c.Generation(root) != g })
		}},
		{"directory removed", func(t *testing.T, root, a, b string) {
			if err := os.RemoveAll(filepath.Join(root, "sub")); err != nil {
				t.Fatal(err)
			}
		}, func(a, b string) string { return b }, func(t *testing.T, c *Cache, root, a, b string) {
			if _, _, err := readCols(t, c, b, "fof_halo_tag"); err == nil {
				t.Fatal("a file of the removed directory still reads")
			}
		}},
	}
	for _, be := range watchBackends {
		for _, tc := range cases {
			t.Run(be.name+"/"+tc.name, func(t *testing.T) {
				root := t.TempDir()
				a := writeSnapshot(t, root, "a.gio", 16, 100)
				if err := os.Mkdir(filepath.Join(root, "sub"), 0o755); err != nil {
					t.Fatal(err)
				}
				b := writeSnapshot(t, filepath.Join(root, "sub"), "b.gio", 16, 200)
				if err := os.WriteFile(filepath.Join(root, "other.bin"), []byte("x"), 0o644); err != nil {
					t.Fatal(err)
				}
				c := New(1<<30, 2)
				defer c.Close()
				watchWith(t, c, be.new)
				g0 := c.Generation(root)
				for _, p := range []string{a, b} {
					if _, _, err := readCols(t, c, p, "fof_halo_tag"); err != nil {
						t.Fatal(err)
					}
					if !isPinned(c, p) {
						t.Fatalf("%s not pinned after its first lookup", filepath.Base(p))
					}
				}
				if g := c.Generation(root); g != g0 {
					t.Fatalf("lookups moved the generation: %d -> %d", g0, g)
				}

				events := c.Stats().WatchEvents
				tc.perturb(t, root, a, b)
				waitFor(t, "the generation to move", func() bool {
					return c.Generation(root) != g0 && c.Stats().WatchEvents > events
				})
				var gone string
				if tc.unpinned != nil {
					gone = tc.unpinned(a, b)
					waitFor(t, filepath.Base(gone)+" unpinned", func() bool { return !isPinned(c, gone) })
				}
				for _, p := range []string{a, b} {
					if p != gone && !isPinned(c, p) {
						t.Errorf("%s was unpinned by a change that does not touch it", filepath.Base(p))
					}
				}
				if tc.check != nil {
					tc.check(t, c, root, a, b)
				}
			})
		}
	}
}

// rewrite writes a snapshot filled from fill at dir/name and moves its
// mtime forward, so every stamp comparison sees a new generation.
func rewrite(t *testing.T, dir, name string, fill int64) string {
	t.Helper()
	path := writeSnapshot(t, dir, name, 16, fill)
	later := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	return path
}

// readsFill checks that root/a.gio now reads the snapshot filled from fill.
func readsFill(fill int64) func(t *testing.T, c *Cache, root, a, b string) {
	return func(t *testing.T, c *Cache, root, a, b string) {
		f, _, err := readCols(t, c, a, "fof_halo_tag")
		if err != nil {
			t.Fatal(err)
		}
		if got := f.MustColumn("fof_halo_tag").I[0]; got != fill {
			t.Fatalf("a.gio reads fill %d, want %d", got, fill)
		}
	}
}

// TestGeneration pins Generation's contract: stable while nothing under
// the root changes (lookups included); a new value from every call with
// no watch, for a root that cannot be watched, and after the watch is
// turned off; and an overflow moves every root and re-arms it, so events
// keep counting afterwards.
func TestGeneration(t *testing.T) {
	root := t.TempDir()
	a := writeSnapshot(t, root, "a.gio", 16, 1)
	c := New(1<<30, 2)
	defer c.Close()

	if c.Generation(root) == c.Generation(root) {
		t.Fatal("without a watch two calls returned the same generation")
	}
	if err := c.SetWatch(true); err != nil {
		t.Fatalf("SetWatch: %v", err)
	}
	missing := filepath.Join(root, "missing")
	if c.Generation(missing) == c.Generation(missing) {
		t.Fatal("an unwatchable root returned the same generation twice")
	}
	g := c.Generation(root)
	if _, _, err := readCols(t, c, a, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	if c.Generation(root) != g || c.Generation(root+string(filepath.Separator)) != g {
		t.Fatal("an unchanged root moved its generation")
	}

	c.onWatchOverflow()
	g2 := c.Generation(root)
	if g2 == g {
		t.Fatal("an overflow did not move the generation")
	}
	if err := os.WriteFile(filepath.Join(root, "b.bin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "an event after the overflow", func() bool { return c.Generation(root) != g2 })

	if err := c.SetWatch(false); err != nil {
		t.Fatal(err)
	}
	if c.Generation(root) == c.Generation(root) {
		t.Fatal("with the watch off two calls returned the same generation")
	}
}
