package server

import (
	"testing"

	"ninf/internal/protocol"
	"ninf/internal/testleak"
)

// TestMain fails the package if the server or stress tests leave
// goroutines (acceptor loops, per-connection handlers) running after
// they pass.
func TestMain(m *testing.M) { testleak.Main(m, protocol.LiveBuffers) }
