package journal

import "sync/atomic"

// countIO makes j count its file writes and fsyncs and returns the two
// counters.
func countIO(j *Journal) (writes, syncs *atomic.Int64) {
	writes, syncs = new(atomic.Int64), new(atomic.Int64)
	j.SetIOHook(func(op string) {
		if op == "sync" {
			syncs.Add(1)
		} else {
			writes.Add(1)
		}
	})
	return writes, syncs
}
