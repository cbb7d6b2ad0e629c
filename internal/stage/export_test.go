package stage

import "time"

// ForceOverflow runs the watcher's lost-events callback, as an inotify
// queue overflow does.
func (c *Cache) ForceOverflow() { c.onWatchOverflow() }

// SetDeafWatch turns on a watch that never reports a change, as if every
// event were lost.
func (c *Cache) SetDeafWatch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.watch = newPollWatcher(func(string, bool) {}, time.Hour)
}
