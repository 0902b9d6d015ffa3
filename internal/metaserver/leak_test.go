package metaserver

import (
	"testing"

	"ninf/internal/protocol"
	"ninf/internal/testleak"
)

// TestMain fails the package if daemon connection handlers, gossip
// loops, or monitors outlive the tests — the regression guard for the
// read-deadline and shutdown paths.
func TestMain(m *testing.M) { testleak.Main(m, protocol.LiveBuffers) }
