package service

import (
	"os"
	"testing"

	"infera/internal/stage"
)

// TestMain poisons every stage buffer that goes back to the free list, so
// an ask still reading a recycled vector changes its answer.
func TestMain(m *testing.M) {
	stage.PoisonRecycled(true)
	os.Exit(m.Run())
}
