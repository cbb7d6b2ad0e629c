package agent

import (
	"os"
	"testing"

	"infera/internal/provenance"
	"infera/internal/stage"
)

// TestMain records no reference to a repeated table without checking it
// against its encoding, and poisons every stage buffer that goes back to
// the free list, so a use after recycle changes an answer or a digest.
func TestMain(m *testing.M) {
	provenance.VerifyRepeats(true)
	stage.PoisonRecycled(true)
	os.Exit(m.Run())
}
