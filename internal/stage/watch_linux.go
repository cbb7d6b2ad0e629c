//go:build linux

package stage

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"sync"
	"syscall"
)

// inotifyWatcher is the Linux watcher: one inotify instance, one reader
// goroutine. The inotify fd is wrapped in an *os.File with O_NONBLOCK so
// reads park on the runtime poller (goroutine-cheap) and Close unblocks
// the reader — the stdlib-only equivalent of what fsnotify does.
type inotifyWatcher struct {
	f          *os.File
	onEvent    func(path string)
	onOverflow func()

	mu    sync.Mutex
	byWD  map[int32]string
	byPat map[string]int32
}

const inotifyMask = syscall.IN_MODIFY | syscall.IN_ATTRIB | syscall.IN_CLOSE_WRITE |
	syscall.IN_MOVE_SELF | syscall.IN_DELETE_SELF

func newWatcher(onEvent func(path string), onOverflow func()) (watcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, err
	}
	w := &inotifyWatcher{
		f:          os.NewFile(uintptr(fd), "inotify"),
		onEvent:    onEvent,
		onOverflow: onOverflow,
		byWD:       map[int32]string{},
		byPat:      map[string]int32{},
	}
	go w.loop()
	return w, nil
}

func (w *inotifyWatcher) add(path string) error {
	wd, err := syscall.InotifyAddWatch(int(w.f.Fd()), path, inotifyMask)
	if err != nil {
		return err
	}
	w.mu.Lock()
	// Re-adding a watched path returns its existing wd; a re-created file
	// gets a fresh one — drop any stale reverse mapping either way.
	if old, ok := w.byPat[path]; ok && old != int32(wd) {
		delete(w.byWD, old)
	}
	w.byWD[int32(wd)] = path
	w.byPat[path] = int32(wd)
	w.mu.Unlock()
	return nil
}

func (w *inotifyWatcher) close() error {
	// Closing the file both releases every watch and unblocks the reader.
	return w.f.Close()
}

// inotifyRecord is the part of one inotify event record the watcher acts
// on.
type inotifyRecord struct {
	wd   int32
	mask uint32
}

// parseInotify splits one read of the inotify event stream into records.
// Records are variable length: a fixed syscall.InotifyEvent header (wd,
// mask, cookie, len) followed by len bytes of name — always empty here,
// since only files (not directories) are watched, but skipped either way.
// A trailing record cut short by the end of buf is dropped, never read
// past.
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
		})
		off += evHdr + nameLen
	}
	return recs
}

// loop reads the inotify event stream and fires the callbacks: onEvent
// per event on a watched file, onOverflow when the kernel's queue
// overflowed and events were lost (an IN_Q_OVERFLOW record, wd -1, which
// matches no watch).
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
			path, ok := w.byWD[r.wd]
			if ok && r.mask&syscall.IN_IGNORED != 0 {
				// Kernel dropped the watch (file deleted / fs unmounted);
				// the next pin re-arms it.
				delete(w.byWD, r.wd)
				if w.byPat[path] == r.wd {
					delete(w.byPat, path)
				}
			}
			w.mu.Unlock()
			if ok && r.mask&inotifyMask != 0 {
				w.onEvent(path)
			}
		}
	}
}
