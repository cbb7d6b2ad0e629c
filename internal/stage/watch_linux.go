//go:build linux

package stage

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// inotifyWatcher is the Linux watcher: one inotify instance, one reader
// goroutine. The inotify fd is wrapped in an *os.File with O_NONBLOCK so
// reads park on the runtime poller (goroutine-cheap) and Close unblocks
// the reader — the stdlib-only equivalent of what fsnotify does.
type inotifyWatcher struct {
	f          *os.File
	fd         int
	onEvent    func(path string, dir bool)
	onOverflow func()

	mu   sync.Mutex
	byWD map[int32]string
}

// inotifyMask is what a directory watch reports: an entry written,
// touched, created, deleted or moved, and the directory moved or deleted.
const inotifyMask = syscall.IN_MODIFY | syscall.IN_ATTRIB | syscall.IN_CLOSE_WRITE |
	syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_FROM | syscall.IN_MOVED_TO |
	syscall.IN_MOVE_SELF | syscall.IN_DELETE_SELF

func newWatcher(onEvent func(path string, dir bool), onOverflow func()) (watcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, err
	}
	w := &inotifyWatcher{
		f:          os.NewFile(uintptr(fd), "inotify"),
		fd:         fd,
		onEvent:    onEvent,
		onOverflow: onOverflow,
		byWD:       map[int32]string{},
	}
	go w.loop()
	return w, nil
}

func (w *inotifyWatcher) add(dir string) error {
	wd, err := syscall.InotifyAddWatch(w.fd, dir, inotifyMask|syscall.IN_ONLYDIR)
	if err != nil {
		return err
	}
	// Re-adding a watched directory returns its wd; a re-created one gets
	// a new wd, and the old one's IN_IGNORED drops the stale mapping.
	w.mu.Lock()
	w.byWD[int32(wd)] = dir
	w.mu.Unlock()
	return nil
}

func (w *inotifyWatcher) close() error {
	// Closing the file both releases every watch and unblocks the reader.
	return w.f.Close()
}

// inotifyRecord is the part of one inotify event record the watcher acts
// on: the watch, the event bits and the name of the directory entry
// concerned ("" for an event on the watched directory itself).
type inotifyRecord struct {
	wd   int32
	mask uint32
	name string
}

// parseInotify splits one read of the inotify event stream into records.
// Records are variable length: a fixed syscall.InotifyEvent header (wd,
// mask, cookie, len) followed by len bytes of name, NUL-padded by the
// kernel to an aligned length. A trailing record cut short by the end of
// buf is dropped, never read past.
func parseInotify(buf []byte) []inotifyRecord {
	const evHdr = syscall.SizeofInotifyEvent
	var recs []inotifyRecord
	for off := 0; off+evHdr <= len(buf); {
		nameLen := int(binary.LittleEndian.Uint32(buf[off+12:]))
		if nameLen > len(buf)-off-evHdr {
			break
		}
		recs = append(recs, inotifyRecord{
			wd:   int32(binary.LittleEndian.Uint32(buf[off:])),
			mask: binary.LittleEndian.Uint32(buf[off+4:]),
			name: strings.TrimRight(string(buf[off+evHdr:off+evHdr+nameLen]), "\x00"),
		})
		off += evHdr + nameLen
	}
	return recs
}

// loop reads the inotify event stream and fires the callbacks: onEvent
// per event in or on a watched directory, onOverflow when the kernel's
// queue overflowed (an IN_Q_OVERFLOW record, wd -1, matching no watch).
func (w *inotifyWatcher) loop() {
	buf := make([]byte, 64*(syscall.SizeofInotifyEvent+syscall.NAME_MAX+1))
	for {
		n, err := w.f.Read(buf)
		if err != nil {
			if errors.Is(err, os.ErrClosed) || errors.Is(err, io.EOF) {
				return
			}
			if errors.Is(err, syscall.EINTR) {
				continue
			}
			return
		}
		for _, r := range parseInotify(buf[:n]) {
			if r.mask&syscall.IN_Q_OVERFLOW != 0 {
				w.onOverflow()
				continue
			}
			w.mu.Lock()
			dir, ok := w.byWD[r.wd]
			if ok && r.mask&(syscall.IN_IGNORED|syscall.IN_MOVE_SELF) != 0 {
				// The kernel dropped the watch (directory deleted, fs
				// unmounted), or the directory left dir: forget it.
				if r.mask&syscall.IN_MOVE_SELF != 0 {
					_, _ = syscall.InotifyRmWatch(w.fd, uint32(r.wd)) // gone already is fine
				}
				delete(w.byWD, r.wd)
			}
			w.mu.Unlock()
			switch {
			case !ok || r.mask&inotifyMask == 0:
			case r.name == "":
				w.onEvent(dir, true)
			default:
				w.onEvent(filepath.Join(dir, r.name), r.mask&syscall.IN_ISDIR != 0)
			}
		}
	}
}
