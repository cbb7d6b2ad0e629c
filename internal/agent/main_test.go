package agent

import (
	"os"
	"testing"

	"infera/internal/provenance"
)

// TestMain copies no repeated table without checking it against its
// encoding.
func TestMain(m *testing.M) {
	provenance.VerifyRepeats(true)
	os.Exit(m.Run())
}
