//go:build race

package mux

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops a quarter of what is Put, so allocation counts
// that depend on pooled buffers being there do not hold.
const raceEnabled = true
