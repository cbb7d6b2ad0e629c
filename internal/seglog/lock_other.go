//go:build !unix || aix || solaris

package seglog

import "os"

// haveLocks: nothing is locked here.
const haveLocks = false

func lockShared(*os.File) {}

// unused cannot tell here whether another process holds a segment, so a
// segment this process did not keep open is never deleted.
func unused(string) bool { return false }

// lockExclusive cannot refuse anyone here.
func lockExclusive(*os.File) error { return nil }
