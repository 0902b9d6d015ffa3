package server

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// goid returns the calling goroutine's ID, parsed from the header of
// its stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic("goid: " + err.Error())
	}
	return id
}

// execution is one executable invocation: which routine, on which
// goroutine.
type execution struct {
	name string
	g    uint64
}

// execLog is a counting hook for executables: a handler calls ran at
// entry, and the log keeps every execution in order.
type execLog struct {
	mu   sync.Mutex
	runs []execution
}

func (l *execLog) ran(name string) {
	g := goid()
	l.mu.Lock()
	l.runs = append(l.runs, execution{name, g})
	l.mu.Unlock()
}

func (l *execLog) snapshot() []execution {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]execution(nil), l.runs...)
}

// queueLen reports how many jobs wait for PEs.
func (s *Server) queueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
