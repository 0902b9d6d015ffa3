package ninf_test

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/linpack"
	"ninf/internal/metaserver"
	"ninf/internal/server"
)

func TestTransactionEmpty(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	tx := ninf.BeginTransaction(ninf.SingleServer("s", dial))
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	if err := tx.End(); err == nil {
		t.Error("double End accepted")
	}
}

func TestTransactionDependencyChain(t *testing.T) {
	// dgefa writes (a, ipvt); dgesl reads them: the transaction must
	// order the two calls even though they were recorded together.
	_, dial := startServer(t, server.Config{PEs: 4})
	sched := ninf.SingleServer("s", dial)

	n := 48
	a := make([]float64, n*n)
	b := linpack.Matgen(a, n)
	orig := append([]float64(nil), a...)
	ipvt := make([]int64, n)
	x := append([]float64(nil), b...)

	tx := ninf.BeginTransaction(sched)
	tx.Call("dgefa", n, a, ipvt)
	tx.Call("dgesl", n, a, ipvt, x)
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	if r := linpack.Residual(orig, n, x, b); r > 10 {
		t.Errorf("residual %g — dependency order violated?", r)
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
	reports := tx.Reports()
	if len(reports) != 2 || reports[0] == nil || reports[1] == nil {
		t.Fatalf("reports = %v", reports)
	}
	// The dependent call cannot have been submitted before the first
	// completed.
	if reports[1].Submit.Before(reports[0].Complete) {
		t.Error("dgesl submitted before dgefa completed")
	}
	for _, err := range tx.Errs() {
		if err != nil {
			t.Errorf("call error: %v", err)
		}
	}
}

func TestTransactionIndependentCallsOverlap(t *testing.T) {
	// Two busy(60) calls with no shared arguments on a 2-PE server
	// should overlap: total ≪ 2×60 ms is not guaranteed in CI, but
	// both reports must exist and both submissions must precede
	// either completion (i.e. they were launched together).
	_, dial := startServer(t, server.Config{PEs: 2})
	tx := ninf.BeginTransaction(ninf.SingleServer("s", dial))
	tx.Call("busy", 60)
	tx.Call("busy", 60)
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	r := tx.Reports()
	if r[1].Submit.After(r[0].Complete) {
		t.Error("second call waited for the first despite independence")
	}
}

func TestTransactionWriteWriteConflictSerializes(t *testing.T) {
	// Two echo calls writing the same output buffer must execute in
	// program order.
	_, dial := startServer(t, server.Config{PEs: 4})
	n := 8
	in1 := make([]float64, n)
	in2 := make([]float64, n)
	for i := range in1 {
		in1[i] = 1
		in2[i] = 2
	}
	out := make([]float64, n)
	tx := ninf.BeginTransaction(ninf.SingleServer("s", dial))
	tx.Call("echo", n, in1, out)
	tx.Call("echo", n, in2, out)
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 2 {
			t.Fatalf("out[%d] = %g; later write did not win", i, out[i])
		}
	}
	r := tx.Reports()
	if r[1].Submit.Before(r[0].Complete) {
		t.Error("conflicting calls overlapped")
	}
}

func TestTransactionDependencyFailurePropagates(t *testing.T) {
	s, dial := startServer(t, server.Config{})
	sched := ninf.SingleServer("s", dial)
	n := 4
	a := make([]float64, n*n)
	linpack.Matgen(a, n)
	ipvt := make([]int64, n)
	x := make([]float64, n)

	// Fail enough times that every retry of dgefa fails too.
	s.FailNextCalls(1 << 20)
	tx := ninf.BeginTransaction(sched)
	tx.SetMaxAttempts(2)
	tx.Call("dgefa", n, a, ipvt)
	tx.Call("dgesl", n, a, ipvt, x)
	if err := tx.End(); err == nil {
		t.Fatal("transaction succeeded with failing server")
	}
	errs := tx.Errs()
	if errs[0] == nil {
		t.Error("dgefa has no error")
	}
	if errs[1] == nil {
		t.Error("dependent dgesl did not inherit failure")
	}
}

// noServerScheduler reports "no eligible server" on every placement,
// the way the metaserver does while every breaker is open.
type noServerScheduler struct{ places int }

func (s *noServerScheduler) Place(ninf.SchedRequest) (ninf.Placement, error) {
	s.places++
	return ninf.Placement{}, metaserver.ErrNoServer
}

func (s *noServerScheduler) Observe(string, int64, time.Duration, error) {}

// Regression: chaining placement failures across retry attempts must
// keep the sentinel reachable by errors.Is — an earlier version built
// the chain with %v, so after the second attempt the retry and
// failover layers could no longer classify the failure.
func TestTransactionPlacementErrorKeepsClass(t *testing.T) {
	sched := &noServerScheduler{}
	tx := ninf.BeginTransaction(sched)
	tx.SetMaxAttempts(3)
	tx.Call("pi", 1)
	err := tx.End()
	if err == nil {
		t.Fatal("End succeeded with no eligible server")
	}
	if !errors.Is(err, metaserver.ErrNoServer) {
		t.Fatalf("placement failure lost its class after chained retries: %v", err)
	}
	if sched.places < 2 {
		t.Fatalf("expected repeated placement attempts, got %d", sched.places)
	}
}

// countingScheduler forwards to a Scheduler, refuses the first
// placement it is asked for the way a metaserver with every breaker
// open does, and counts the placements it grants and the outcomes it
// hears.
type countingScheduler struct {
	inner ninf.Scheduler

	mu               sync.Mutex
	asked, placed    int
	observed         int
	unobservedServer map[string]int
}

func (s *countingScheduler) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	s.mu.Lock()
	s.asked++
	first := s.asked == 1
	s.mu.Unlock()
	if first {
		return ninf.Placement{}, metaserver.ErrNoServer
	}
	pl, err := s.inner.Place(req)
	if err == nil {
		s.mu.Lock()
		s.placed++
		s.unobservedServer[pl.Name]++
		s.mu.Unlock()
	}
	return pl, err
}

func (s *countingScheduler) Observe(name string, bytes int64, elapsed time.Duration, callErr error) {
	s.mu.Lock()
	s.observed++
	s.unobservedServer[name]--
	s.mu.Unlock()
	s.inner.Observe(name, bytes, elapsed, callErr)
}

// TestTransactionObservesEveryPlacement: every placement a transaction
// takes — the interface fetch's, a failed call's, the failover's —
// is reported back to the scheduler exactly once, also after a
// placement refusal. An unreported placement leaves the metaserver's
// optimistic queue count raised and, on a half-open server, its one
// probe slot taken.
func TestTransactionObservesEveryPlacement(t *testing.T) {
	sA, dialA := startServer(t, server.Config{})
	_, dialB := startServer(t, server.Config{})
	m := metaserver.New(metaserver.Config{})
	if err := m.AddServer("a", "a", 100, dialA); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("b", "b", 100, dialB); err != nil {
		t.Fatal(err)
	}
	// The rotation sends the interface fetch to b and the call to a,
	// where it fails once and fails over to b.
	sA.FailNextCalls(1)
	sched := &countingScheduler{inner: m, unobservedServer: map[string]int{}}
	tx := ninf.BeginTransaction(sched)
	var sx, sy float64
	var pairs int64
	tx.Call("ep", 8, 0, int64(1)<<8, &sx, &sy, &pairs, nil)
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	if tx.Failovers() != 1 {
		t.Errorf("Failovers = %d, want 1 (servers tried: %v)", tx.Failovers(), tx.Servers())
	}
	if sched.placed != 3 {
		t.Errorf("placements granted = %d, want 3 (interface, failed call, failover)", sched.placed)
	}
	if sched.observed != sched.placed {
		t.Errorf("%d placements granted, %d observed; unobserved per server: %v", sched.placed, sched.observed, sched.unobservedServer)
	}
	for _, s := range m.Servers() {
		if s.Stats.Queued != 0 {
			t.Errorf("%s: Queued = %d after the transaction, want 0", s.Name, s.Stats.Queued)
		}
	}
}

// TestTransactionInterfaceFetchSettlesProbe: a server whose breaker is
// half-open admits one probe placement. When the transaction's
// interface fetch takes that probe, its success must close the breaker,
// or the call itself finds no eligible server.
func TestTransactionInterfaceFetchSettlesProbe(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	m := metaserver.New(metaserver.Config{FailThreshold: 1, BreakerCooldown: 20 * time.Millisecond})
	if err := m.AddServer("s", "s", 100, dial); err != nil {
		t.Fatal(err)
	}
	m.Observe("s", 0, 0, errors.New("injected failure"))
	time.Sleep(30 * time.Millisecond) // past the cooldown: half-open next
	tx := ninf.BeginTransaction(m)
	tx.Call("busy", 1)
	if err := tx.End(); err != nil {
		t.Fatalf("one-call transaction against a healthy server failed: %v", err)
	}
	s := m.Servers()[0]
	if s.Breaker != metaserver.BreakerClosed || s.Stats.Queued != 0 {
		t.Errorf("after the transaction: breaker %v, Queued %d; want closed, 0", s.Breaker, s.Stats.Queued)
	}
}
