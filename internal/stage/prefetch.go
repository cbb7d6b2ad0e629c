// Prefetch: while a gio file is open for a demand decode, the access
// pattern has just told us two cheap-to-act-on facts — which file is hot
// (its unrequested sibling columns are likely next, per-column keying
// means they were NOT fetched) and which columns of it matter (the
// ensemble's next timestep file will be asked for the same set). Both
// are pulled into the DISK tier only, on a small bounded background
// pool: raw CRC-verified blocks via gio.ReadBlock, never decoded — the
// decode (or mmap cast) is deferred until the column is actually
// requested, so a wrong guess costs one background block read and some
// stage-dir bytes, not memory-budget residency. The read buffers come
// from the cache's free list and go back as soon as the block is written.
// Accounting closes the loop: a prefetched block's first promotion counts
// prefetch_used; one evicted or invalidated untouched counts
// prefetch_wasted.
//
// Next-step neighbor hints come from whoever understands file layout —
// the catalog owner (internal/core) registers a path→successors map at
// startup (RegisterNeighbors); the cache itself stays layout-agnostic.
package stage

import (
	"strings"

	"infera/internal/gio"
)

// SetPrefetch enables or disables sibling/next-step prefetching into the
// disk tier. On by default once a disk tier is attached; a no-op without
// one (there is nowhere to prefetch into).
func (c *Cache) SetPrefetch(on bool) {
	c.mu.Lock()
	c.prefetchOn = on
	c.mu.Unlock()
}

// RegisterNeighbors installs a next-file hint for paths under root: fn
// maps a staged file to the files likely staged next (e.g. the same
// run/type at the following timestep). Re-registering a root replaces
// its hint, so catalog reloads stay idempotent. fn must be safe for
// concurrent use and is called off the hot path.
func (c *Cache) RegisterNeighbors(root string, fn func(path string) []string) {
	c.mu.Lock()
	if c.neighborHints == nil {
		c.neighborHints = map[string]func(string) []string{}
	}
	c.neighborHints[root] = fn
	c.mu.Unlock()
}

// neighborsOf resolves the hint for path (longest registered root prefix
// wins) and returns its successor paths.
func (c *Cache) neighborsOf(path string) []string {
	c.mu.Lock()
	var best string
	var fn func(string) []string
	for root, f := range c.neighborHints {
		if strings.HasPrefix(path, root) && len(root) >= len(best) {
			best, fn = root, f
		}
	}
	c.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(path)
}

// maybePrefetch schedules one background prefetch pass for a file a
// demand decode just opened. Non-blocking: if the pool's queue is full
// or a pass for this path is already in flight, the opportunity is
// simply dropped.
func (c *Cache) maybePrefetch(path string, requested []string, st stamp) {
	c.mu.Lock()
	dt := c.disk
	if dt == nil || !c.prefetchOn || c.prefetchBusy[path] {
		c.mu.Unlock()
		return
	}
	if c.prefetchBusy == nil {
		c.prefetchBusy = map[string]bool{}
	}
	c.prefetchBusy[path] = true
	c.mu.Unlock()
	cols := append([]string(nil), requested...)
	ok := c.enqueueBG(func() {
		defer func() {
			c.mu.Lock()
			delete(c.prefetchBusy, path)
			c.mu.Unlock()
		}()
		c.prefetchPass(dt, path, cols, st)
	})
	if !ok {
		c.mu.Lock()
		delete(c.prefetchBusy, path)
		c.mu.Unlock()
	}
}

// prefetchPass pulls path's sibling columns, then the requested column
// set of each hinted next file, into the disk tier as raw blocks.
func (c *Cache) prefetchPass(dt *diskTier, path string, requested []string, st stamp) {
	reqSet := map[string]bool{}
	for _, n := range requested {
		reqSet[n] = true
	}
	c.prefetchBlocks(dt, path, &st, func(name string) bool { return !reqSet[name] })
	for _, np := range c.neighborsOf(path) {
		if np == path {
			continue
		}
		c.prefetchBlocks(dt, np, nil, func(name string) bool { return reqSet[name] })
	}
}

// prefetchBlocks copies the block of every column of path selected by
// want into the disk tier, skipping blocks already resident for this
// file generation. Blocks are stamped with the fstat of the file actually
// opened (gio.Reader.Stat); with expect set, a file whose opened
// generation differs — rewritten between scheduling and execution — is
// skipped instead of storing a mixed-generation block.
func (c *Cache) prefetchBlocks(dt *diskTier, path string, expect *stamp, want func(name string) bool) {
	r, err := gio.Open(path)
	if err != nil {
		return
	}
	defer r.Close()
	st := stampOf(r.Stat())
	if expect != nil && *expect != st {
		return
	}
	for _, name := range r.ColumnNames() {
		if !want(name) || dt.has(key{path: path, col: name}, st) {
			continue
		}
		// No reader ever sees the free-list buffer the block is read into,
		// so it goes back as soon as the block store has written it.
		var l loan
		info, blk, err := r.ReadBlockAlloc(name, &l)
		if err == nil {
			dt.put(key{path: path, col: name}, st, info.Kind, r.NumRows(), blk, true)
		}
		c.free.put(l.buf)
	}
}
