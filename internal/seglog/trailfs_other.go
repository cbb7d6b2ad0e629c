//go:build !linux

package seglog

import (
	"errors"
	"os"
)

// punchHole is Linux-only: elsewhere a freed block's bytes stay until its
// segment holds no block, and is emptied or deleted.
func punchHole(*os.File, int64, int64) error { return errors.ErrUnsupported }
