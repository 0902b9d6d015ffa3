package protocol

import (
	"testing"

	"ninf/internal/testleak"
)

// TestMain fails the package if a test leaves goroutines running or a
// frame buffer acquired and never released.
func TestMain(m *testing.M) { testleak.Main(m, LiveBuffers) }
