//go:build race

package ninf_test

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops a quarter of what is Put, so allocation budgets
// that depend on pooled buffers being there do not hold.
const raceEnabled = true
