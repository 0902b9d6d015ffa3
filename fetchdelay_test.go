package ninf

import (
	"testing"
	"time"
)

// TestNextFetchDelay: the fetch poll schedule doubles from the 1ms
// floor and holds at fetchPollCap.
func TestNextFetchDelay(t *testing.T) {
	want := []time.Duration{
		2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		16 * time.Millisecond, 32 * time.Millisecond, 64 * time.Millisecond,
		128 * time.Millisecond, fetchPollCap, fetchPollCap,
	}
	d := time.Millisecond
	for i, w := range want {
		if d = nextFetchDelay(d); d != w {
			t.Fatalf("step %d: delay = %v, want %v", i, d, w)
		}
	}
}
