package server

import (
	"sync"
	"time"

	"ninf/internal/protocol"
)

// Trace returns the server's execution history per routine.
func (s *Server) Trace() []protocol.RoutineTrace { return s.trace.snapshot() }

// tracer accumulates execution history per routine.
type tracer struct {
	mu sync.Mutex
	m  map[string]*traceAcc
}

type traceAcc struct {
	count, failures int64
	totalCompute    time.Duration
	totalWait       time.Duration
	totalBytes      int64
}

func newTracer() *tracer { return &tracer{m: make(map[string]*traceAcc)} }

// record folds one completed execution into the history.
func (tr *tracer) record(name string, wait, compute time.Duration, bytes int64, failed bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	acc, ok := tr.m[name]
	if !ok {
		acc = &traceAcc{}
		tr.m[name] = acc
	}
	acc.count++
	if failed {
		acc.failures++
	}
	acc.totalCompute += compute
	acc.totalWait += wait
	acc.totalBytes += bytes
}

// predictCompute returns the mean observed compute time of a routine,
// or 0 when there is no history yet. The SJF policy uses this as a
// fallback predictor for routines whose IDL declares no Complexity.
func (tr *tracer) predictCompute(name string) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	acc, ok := tr.m[name]
	if !ok || acc.count == 0 {
		return 0
	}
	return acc.totalCompute / time.Duration(acc.count)
}

// snapshot returns the history for every routine, sorted by name.
func (tr *tracer) snapshot() []protocol.RoutineTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]protocol.RoutineTrace, 0, len(tr.m))
	for name, acc := range tr.m {
		rt := protocol.RoutineTrace{
			Name:      name,
			Count:     acc.count,
			Failures:  acc.failures,
			MeanBytes: acc.totalBytes / acc.count,
		}
		rt.MeanCompute = acc.totalCompute / time.Duration(acc.count)
		rt.MeanWait = acc.totalWait / time.Duration(acc.count)
		out = append(out, rt)
	}
	sortTraces(out)
	return out
}

func sortTraces(ts []protocol.RoutineTrace) {
	// Insertion sort: the routine count is small and this avoids an
	// import for one call site.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Name < ts[j-1].Name; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
