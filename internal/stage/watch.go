// Filesystem watch: the cache's one freshness mechanism (see Freshness in
// stage.go). It watches directories, so rewriting, renaming over,
// creating or deleting a file is an event, and so is a directory
// appearing, moving or vanishing (an event for every path under it).
// inotify backs it on Linux (watch_linux.go, stdlib syscall only), a
// directory poller (watch_poll.go) everywhere else.
package stage

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// watcher watches directories (add is idempotent). The constructor's
// onEvent gets, from the watcher's goroutine, the path an event concerns
// and whether it is a directory; onOverflow reports lost events.
type watcher interface {
	add(dir string) error
	close() error
}

// SetWatch turns filesystem-watch freshness on or off. Off (or a
// constructor error), every lookup stats and every Generation call
// returns a new value.
func (c *Cache) SetWatch(on bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if on && c.watch == nil {
		w, err := newWatcher(c.onFileEvent, c.onWatchOverflow)
		c.watch = w
		return err
	}
	if !on && c.watch != nil {
		c.watch.close()
		c.watch = nil
		c.pinned = map[string]stamp{}
		c.bumpRoots(func(string) bool { return true }, true)
	}
	return nil
}

// Generation returns the generation of the tree at root (spelled as the
// cache's paths under it are), which moves on every event under root and
// every overflow. The first call for a root watches every directory under
// it; later calls are one atomic load. Without a watch, or for a tree that
// could not be watched, every call returns a value never returned before.
func (c *Cache) Generation(root string) uint64 {
	root = filepath.Clean(root)
	if g, ok := c.roots.Load(root); ok {
		return c.genOf(g.(*atomic.Uint64))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.roots.Load(root)
	if g, _ := v.(*atomic.Uint64); ok || c.watch == nil {
		return c.genOf(g)
	}
	g := new(atomic.Uint64)
	g.Store(c.genSeq.Add(1))
	c.roots.Store(root, g) // before arming, so events mid-walk count
	if watchTree(c.watch, root) != nil {
		g = nil // unwatched until forgotten (overflow, SetWatch, a move)
		c.roots.Store(root, g)
	}
	return c.genOf(g)
}

// genOf reads a root's generation; an unwatched root (nil) never repeats.
func (c *Cache) genOf(g *atomic.Uint64) uint64 {
	if g == nil {
		return c.genSeq.Add(1)
	}
	return g.Load()
}

// bumpRoots moves the generation of every root match selects; forget also
// drops the root, so its next Generation call watches its tree afresh.
func (c *Cache) bumpRoots(match func(root string) bool, forget bool) {
	c.roots.Range(func(k, v any) bool {
		if root := k.(string); match(root) {
			if g := v.(*atomic.Uint64); g != nil {
				g.Store(c.genSeq.Add(1))
			}
			if forget {
				c.roots.Delete(root)
			}
		}
		return true
	})
}

// watchTree watches root and every directory under it, skipping one that
// vanishes mid-walk (its removal is an event of its own).
func watchTree(w watcher, root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			err = w.add(path)
		}
		if path != root && errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	})
}

// under reports whether path is root or lies beneath it.
func under(path, root string) bool {
	return strings.HasPrefix(path, root) && (len(path) == len(root) ||
		os.IsPathSeparator(path[len(root)]) || os.IsPathSeparator(root[len(root)-1]))
}

// onFileEvent is the watcher callback: path (with everything under it,
// when dir is set) changed or vanished. A directory appearing under a root
// is watched before the event counts; every root holding path moves its
// generation, and a root under path is forgotten. Each statted path the
// event covers is unpinned and its entries dropped from both tiers (an
// in-flight decode of the old bytes is harmless: it carries their stamp).
func (c *Cache) onFileEvent(path string, dir bool) {
	c.mu.Lock()
	if dir {
		inRoot := false
		c.roots.Range(func(k, _ any) bool {
			inRoot = under(path, k.(string))
			return !inRoot
		})
		if inRoot && c.watch != nil {
			if err := watchTree(c.watch, path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				c.bumpRoots(func(root string) bool { return under(path, root) }, true)
			}
		}
		c.bumpRoots(func(root string) bool { return under(root, path) }, true)
	}
	c.bumpRoots(func(root string) bool { return under(path, root) }, false)
	c.stats.WatchEvents++
	var gone []string
	if _, ok := c.pinEpoch[path]; ok {
		gone = append(gone, path)
	}
	if dir {
		for p := range c.pinEpoch {
			if p != path && under(p, path) {
				gone = append(gone, p)
			}
		}
	}
	if len(gone) == 0 {
		c.mu.Unlock()
		return
	}
	doomed := make(map[string]bool, len(gone))
	for _, p := range gone {
		c.pinEpoch[p]++
		delete(c.pinned, p)
		doomed[p] = true
	}
	for k, el := range c.items {
		if doomed[k.path] {
			c.removeLocked(el)
			c.stats.Invalidations++
		}
	}
	dt := c.disk
	c.mu.Unlock()
	for _, p := range gone {
		if dt != nil {
			dt.invalidatePath(p)
		}
	}
}

// onWatchOverflow is the watcher callback for lost events: every path is
// unpinned and its epoch bumped (refusing pins from stats that raced the
// overflow), so both tiers re-validate against the next stat, and every
// root moves its generation and re-arms on its next Generation call.
func (c *Cache) onWatchOverflow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path := range c.pinEpoch {
		c.pinEpoch[path]++
	}
	c.pinned = map[string]stamp{}
	c.bumpRoots(func(string) bool { return true }, true)
	c.stats.WatchOverflows++
}
