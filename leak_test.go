package ninf

import (
	"testing"

	"ninf/internal/protocol"
	"ninf/internal/testleak"
)

// TestMain fails the package if the client, pool, or stress tests
// leave goroutines running after they pass.
func TestMain(m *testing.M) { testleak.Main(m, protocol.LiveBuffers) }
