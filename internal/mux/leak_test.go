package mux

import (
	"testing"

	"ninf/internal/protocol"
	"ninf/internal/testleak"
)

// TestMain fails the package if session writer or reader goroutines
// outlive the tests: every Session torn down by a test (or its
// cleanup) must have joined both loops before the process exits.
func TestMain(m *testing.M) { testleak.Main(m, protocol.LiveBuffers) }
