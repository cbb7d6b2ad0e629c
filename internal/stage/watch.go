// Filesystem watch: the replacement for stat-TTL freshness. With a watch
// active the cache pins each file's (mtime, size) stamp the first time it
// is statted and serves every later freshness check from the pin — zero
// syscalls on the hot path — until the watcher reports the file changed,
// which unpins it and invalidates exactly the touched file's entries in
// both tiers. Invalidation becomes exact (event-driven) instead of
// bounded-staleness (TTL), and stat_saves goes to ~100% at steady state.
//
// Two implementations sit behind one interface: inotify on Linux
// (watch_linux.go, stdlib syscall only — no fsnotify dependency) and a
// coarse stat-poll loop everywhere else (watch_other.go). The poll
// fallback keeps the same exact-invalidation semantics with a
// pollInterval detection latency; hot-path stat elision is identical.
package stage

// watcher is the platform-neutral file-watch interface. add registers one
// file (idempotent; re-adding after a rename/delete re-arms it); events
// are delivered to the constructor's onEvent callback from a dedicated
// goroutine, and a backend that can lose events (inotify's bounded queue)
// calls onOverflow instead when it does.
type watcher interface {
	add(path string) error
	close() error
}
