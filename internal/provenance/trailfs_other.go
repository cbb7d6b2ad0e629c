//go:build !linux

package provenance

import (
	"errors"
	"os"
)

// punchHole is Linux-only: elsewhere a removed session's bytes stay until
// its segment holds no session.
func punchHole(*os.File, int64, int64) error { return errors.ErrUnsupported }

func lockShared(*os.File) {}

// unused cannot tell here whether another process holds a segment, so a
// segment this process did not keep open is never deleted.
func unused(string) bool { return false }
