package stage

import (
	"os"
	"testing"
)

// TestMain poisons every buffer that goes back to the free list, so a
// vector read after its buffer was recycled reads the NaN pattern.
func TestMain(m *testing.M) {
	PoisonRecycled(true)
	os.Exit(m.Run())
}
