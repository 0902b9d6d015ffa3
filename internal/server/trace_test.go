package server

import (
	"context"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/protocol"
	"ninf/internal/server/sched"
)

func TestTracerAccumulation(t *testing.T) {
	tr := newTracer()
	if got := tr.snapshot(); len(got) != 0 {
		t.Errorf("fresh tracer = %v", got)
	}
	if d := tr.predictCompute("x"); d != 0 {
		t.Errorf("prediction with no history = %v", d)
	}
	tr.record("x", time.Millisecond, 10*time.Millisecond, 100, false)
	tr.record("x", 3*time.Millisecond, 30*time.Millisecond, 300, true)
	tr.record("a", 0, time.Second, 8, false)

	if d := tr.predictCompute("x"); d != 20*time.Millisecond {
		t.Errorf("predictCompute = %v, want 20ms", d)
	}
	snap := tr.snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "x" {
		t.Fatalf("snapshot = %v", snap)
	}
	x := snap[1]
	if x.Count != 2 || x.Failures != 1 || x.MeanWait != 2*time.Millisecond || x.MeanBytes != 200 {
		t.Errorf("x = %+v", x)
	}
}

// TestSJFLearnsFromTrace exercises the §5.1 predictor path: routines
// WITHOUT Complexity clauses get ordered by SJF using the execution
// trace after a warm-up run.
func TestSJFLearnsFromTrace(t *testing.T) {
	reg := NewRegistry()
	spin := func(_ context.Context, args []idl.Value) error {
		time.Sleep(time.Duration(args[0].(int64)) * time.Millisecond)
		return nil
	}
	// Note: no Complexity clauses.
	err := reg.RegisterIDL(`
Define slow(mode_in int ms) Calls "go" spin(ms);
Define quick(mode_in int ms) Calls "go" spin(ms);
`, map[string]Handler{"slow": spin, "quick": spin})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{PEs: 1, Policy: sched.SJF{}}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	// Warm-up: teach the trace that slow ≫ quick.
	call(t, conn, protocol.MsgCall, encodeCall(t, reg, "slow", int64(120)))
	call(t, conn, protocol.MsgCall, encodeCall(t, reg, "quick", int64(5)))

	// Occupy the PE, then queue slow before quick; SJF must run
	// quick first based on learned history.
	gateConn := pipeConn(t, s)
	pg := encodeCall(t, reg, "slow", int64(150))
	go callNB(gateConn, protocol.MsgCall, pg)
	waitFor(t, func() bool { return s.Stats().Running == 1 }, "gate running")

	slowConn := pipeConn(t, s)
	ps := encodeCall(t, reg, "slow", int64(120))
	slowDone := make(chan int64, 1)
	go func() {
		callNB(slowConn, protocol.MsgCall, ps)
		slowDone <- time.Now().UnixNano()
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 }, "slow queued")

	quickConn := pipeConn(t, s)
	pq := encodeCall(t, reg, "quick", int64(5))
	quickDone := make(chan int64, 1)
	go func() {
		callNB(quickConn, protocol.MsgCall, pq)
		quickDone <- time.Now().UnixNano()
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 2 }, "both queued")

	qt := <-quickDone
	st := <-slowDone
	if qt >= st {
		t.Error("SJF did not prioritize the historically-quick routine")
	}
}
