package ninf

// Internal-package test: noteEpoch is the one place the client folds
// racing epoch observations (hello negotiations, Stats polls) into its
// view of the server incarnation, and its monotonicity is not
// reachable deterministically through the public API.

import (
	"testing"

	"ninf/internal/protocol"
)

// TestNoteEpochMonotonic pins that a delayed observation carrying an
// older epoch — e.g. an in-flight Stats reply decoded after a
// reconnect hello already observed the restarted server — never rolls
// srvEpoch backwards. A rollback would both un-stale handles minted
// against the dead incarnation and spuriously stale fresh ones.
func TestNoteEpochMonotonic(t *testing.T) {
	c := &Client{}
	dig, ok := protocol.DigestValue([]float64{1, 2, 3})
	if !ok {
		t.Fatal("DigestValue refused a []float64")
	}
	digs := []protocol.Digest{dig}

	c.noteEpoch(0) // journal-less servers are never tracked
	if got := c.ServerEpoch(); got != 0 {
		t.Fatalf("epoch after zero observation = %d, want 0", got)
	}

	c.noteEpoch(3)
	if got := c.ServerEpoch(); got != 3 {
		t.Fatalf("epoch = %d, want 3", got)
	}

	// A restart flushes warmth knowledge...
	c.markWarm(digs)
	c.noteEpoch(5)
	if got := c.ServerEpoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
	if _, unknown := c.warmth(digs); !unknown {
		t.Fatal("warm set survived an epoch advance")
	}

	// ...but a delayed older observation is stale wire data, not server
	// state: the epoch holds and warmth knowledge is untouched.
	c.markWarm(digs)
	c.noteEpoch(3)
	if got := c.ServerEpoch(); got != 5 {
		t.Fatalf("delayed old observation rolled epoch back to %d", got)
	}
	if _, unknown := c.warmth(digs); unknown {
		t.Fatal("delayed old observation flushed the warm set")
	}
	c.noteEpoch(5) // duplicate of the current epoch is likewise inert
	if _, unknown := c.warmth(digs); unknown {
		t.Fatal("duplicate current-epoch observation flushed the warm set")
	}

	// Handles mint at the held (newest) epoch.
	if h, ok := c.HandleFor([]float64{1, 2, 3}); !ok || h.epoch != 5 {
		t.Fatalf("HandleFor stamped epoch %d, want 5", h.epoch)
	}
}
