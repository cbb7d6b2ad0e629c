package tools

import (
	"os"
	"testing"

	"infera/internal/stage"
)

// TestMain poisons every stage buffer that goes back to the free list, so
// a result still aliasing a recycled vector changes.
func TestMain(m *testing.M) {
	stage.PoisonRecycled(true)
	os.Exit(m.Run())
}
