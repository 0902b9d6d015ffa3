// Package testleak is a dependency-free goroutine leak detector for
// TestMain, in the spirit of go.uber.org/goleak: after the package's
// tests pass, any goroutine that is not part of the test harness or
// the runtime must have exited. Servers, pools, and stress harnesses
// that forget to tear down show up here as a failing build with a full
// stack dump.
//
// Usage, one line per package:
//
//	func TestMain(m *testing.M) { testleak.Main(m) }
//
// A package whose code holds pooled objects also names their live
// counts, which must read zero once the goroutines have settled:
//
//	func TestMain(m *testing.M) { testleak.Main(m, protocol.LiveBuffers) }
package testleak

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleTimeout bounds how long Main waits for goroutines started by
// tests to drain before declaring a leak. Connection teardown and
// server shutdown are asynchronous, so a grace period avoids flakes.
const settleTimeout = 5 * time.Second

// Main runs the package's tests and then fails the process if
// goroutines leaked or, once they have settled, any of the live counts
// is not zero. It exits; call it from TestMain only.
func Main(m *testing.M, live ...func() int64) {
	code := m.Run()
	if code == 0 {
		if leaked := Check(settleTimeout); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "testleak: %d leaked goroutine(s) after tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	if code == 0 {
		for _, count := range live {
			if n := count(); n != 0 {
				name := runtime.FuncForPC(reflect.ValueOf(count).Pointer()).Name()
				fmt.Fprintf(os.Stderr, "testleak: %s = %d after tests, want 0\n", name, n)
				code = 1
			}
		}
	}
	os.Exit(code)
}

// Check polls until no unexpected goroutines remain or the timeout
// elapses, returning the stacks of the leakers (nil when clean).
func Check(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	var leaked []string
	for {
		leaked = interestingGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// interestingGoroutines returns the stacks of goroutines that are
// neither the caller nor part of the test harness or runtime.
func interestingGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the current goroutine (TestMain itself)
		}
		if isHarnessGoroutine(g) {
			continue
		}
		out = append(out, strings.TrimSpace(g))
	}
	return out
}

// harnessMarkers identify goroutines the test framework and runtime
// own; everything else was started by the code under test.
var harnessMarkers = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).before",
	"testing.runFuzzing(",
	"testing.runFuzzTests(",
	"runtime.goexit",
	"created by runtime",
	"runtime.MHeap_Scavenger",
	"runtime.gc",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime/trace",
	"runtime.ReadTrace",
}

func isHarnessGoroutine(stack string) bool {
	if strings.TrimSpace(stack) == "" {
		return true
	}
	for _, marker := range harnessMarkers {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	// Goroutines sitting in the runtime with no user frames (GC
	// workers, timer goroutines) have a "[...]" status but no package
	// path with a dot before the first slash-less frame; keep it
	// simple: a stack whose every frame is runtime-internal is benign.
	for _, line := range strings.Split(stack, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "goroutine ") {
			continue
		}
		if strings.HasPrefix(line, "runtime.") || strings.HasPrefix(line, "\t") {
			continue
		}
		return false // a non-runtime frame: user code
	}
	return true
}
