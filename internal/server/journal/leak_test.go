package journal

import (
	"testing"

	"ninf/internal/testleak"
)

// TestMain fails the package if a journal's FsyncInterval syncer
// outlives its Close.
func TestMain(m *testing.M) { testleak.Main(m) }
