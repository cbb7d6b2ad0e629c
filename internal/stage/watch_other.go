//go:build !linux

package stage

// newWatcher picks the directory poller where there is no inotify.
// Polling never loses a change, so onOverflow is unused.
func newWatcher(onEvent func(path string, dir bool), onOverflow func()) (watcher, error) {
	return newPollWatcher(onEvent, pollInterval), nil
}
