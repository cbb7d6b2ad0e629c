package stage

import (
	"os"
	"path/filepath"
	"sync"
	"time"
)

// pollInterval is the poller's detection latency.
const pollInterval = 500 * time.Millisecond

// pollWatcher lists every watched directory once per interval and reports
// each entry that appeared, vanished or changed (mtime, size; a
// subdirectory only by appearing or vanishing: its own listing reports its
// contents), and each directory it can no longer list, which it forgets.
type pollWatcher struct {
	onEvent func(path string, dir bool)
	stop    chan struct{}
	mu      sync.Mutex
	dirs    map[string]map[string]pollEntry
}

type pollEntry struct {
	st  stamp
	dir bool
}

func newPollWatcher(onEvent func(path string, dir bool), interval time.Duration) *pollWatcher {
	w := &pollWatcher{onEvent: onEvent, stop: make(chan struct{}), dirs: map[string]map[string]pollEntry{}}
	go w.loop(interval)
	return w
}

// add records dir's listing, unless dir is watched already: its listing
// then stays what the next poll compares against, so a change since the
// last poll is still reported.
func (w *pollWatcher) add(dir string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.dirs[dir]; ok {
		return nil
	}
	listing, err := listDir(dir)
	if err == nil {
		w.dirs[dir] = listing
	}
	return err
}

func (w *pollWatcher) close() error {
	close(w.stop)
	return nil
}

// listDir stamps dir's entries, leaving out one that vanishes before its
// stat.
func listDir(dir string) (map[string]pollEntry, error) {
	ents, err := os.ReadDir(dir)
	out := make(map[string]pollEntry, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			out[e.Name()] = pollEntry{dir: true}
		} else if fi, err := e.Info(); err == nil {
			out[e.Name()] = pollEntry{st: stampOf(fi)}
		}
	}
	return out, err
}

func (w *pollWatcher) loop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		w.mu.Lock()
		dirs := make([]string, 0, len(w.dirs))
		for d := range w.dirs {
			dirs = append(dirs, d)
		}
		w.mu.Unlock()
		for _, d := range dirs {
			cur, err := listDir(d)
			w.mu.Lock()
			prev, ok := w.dirs[d]
			if err != nil {
				delete(w.dirs, d)
			} else if ok {
				w.dirs[d] = cur
			}
			w.mu.Unlock()
			if !ok {
				continue
			} else if err != nil {
				w.onEvent(d, true)
				continue
			}
			for name, p := range prev {
				if c, ok := cur[name]; !ok || c != p {
					w.onEvent(filepath.Join(d, name), p.dir || c.dir)
				}
			}
			for name, c := range cur {
				if _, ok := prev[name]; !ok {
					w.onEvent(filepath.Join(d, name), c.dir)
				}
			}
		}
	}
}
