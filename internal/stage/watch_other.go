//go:build !linux

package stage

import (
	"os"
	"sync"
	"time"
)

// pollInterval is the non-Linux fallback's change-detection latency: each
// registered file is statted once per interval from a single background
// goroutine. Hot-path behavior is identical to inotify — lookups serve
// the pinned stamp with zero syscalls — only the invalidation latency
// differs.
const pollInterval = 500 * time.Millisecond

// pollWatcher stat-polls registered paths and fires the callback when a
// file's (mtime, size) changes, it disappears, or it reappears.
type pollWatcher struct {
	onEvent func(path string)
	stop    chan struct{}
	mu      sync.Mutex
	seen    map[string]pollState
}

type pollState struct {
	st  stamp
	err bool
}

// newWatcher starts the poller. Polling never loses a change, so
// onOverflow is unused.
func newWatcher(onEvent func(path string), onOverflow func()) (watcher, error) {
	w := &pollWatcher{
		onEvent: onEvent,
		stop:    make(chan struct{}),
		seen:    map[string]pollState{},
	}
	go w.loop()
	return w, nil
}

func (w *pollWatcher) add(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.seen[path] = pollState{st: stamp{mtime: st.ModTime().UnixNano(), size: st.Size()}}
	w.mu.Unlock()
	return nil
}

func (w *pollWatcher) close() error {
	close(w.stop)
	return nil
}

func (w *pollWatcher) loop() {
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		w.mu.Lock()
		paths := make([]string, 0, len(w.seen))
		for p := range w.seen {
			paths = append(paths, p)
		}
		w.mu.Unlock()
		for _, p := range paths {
			st, err := os.Stat(p)
			var cur pollState
			if err != nil {
				cur = pollState{err: true}
			} else {
				cur = pollState{st: stamp{mtime: st.ModTime().UnixNano(), size: st.Size()}}
			}
			w.mu.Lock()
			prev, ok := w.seen[p]
			changed := ok && prev != cur
			if ok {
				w.seen[p] = cur
			}
			w.mu.Unlock()
			if changed {
				w.onEvent(p)
			}
		}
	}
}
