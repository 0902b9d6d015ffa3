package metaserver

import (
	"errors"
	"net"
	"testing"
	"time"

	"ninf"
	"ninf/internal/placement"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// errCallFailed is a call failure that is not an overload rejection.
var errCallFailed = errors.New("call failed")

// overloadErr builds the overload rejection a loaded server sends.
func overloadErr(hintMillis uint32) error {
	return &protocol.RemoteError{Code: protocol.CodeOverloaded, Detail: "queue full", RetryAfterMillis: hintMillis}
}

// TestOverloadDoesNotTripBreaker is the regression for the breaker
// bugfix: a storm of CodeOverloaded replies proves the server is alive
// (it answered, deliberately), so the breaker must stay closed no
// matter how many arrive — while genuine failures still open it.
func TestOverloadDoesNotTripBreaker(t *testing.T) {
	m := New(Config{FailThreshold: 3, BreakerCooldown: time.Hour})
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}

	// Saturate: far more overload replies than the fail threshold.
	for i := 0; i < 20; i++ {
		m.Observe("a", 0, 0, overloadErr(100))
	}
	s := snapshotOf(t, m, "a")
	if s.Breaker != BreakerClosed || !s.Alive {
		t.Fatalf("breaker after overload storm: %+v — busy misread as dead", s)
	}
	if !s.Overloaded {
		t.Error("Overloaded = false right after an overload reply")
	}
	if s.Fails != 0 {
		t.Errorf("Fails = %d after overloads; back-pressure counted as failure", s.Fails)
	}
	if evs := m.BreakerEvents(); len(evs) != 0 {
		t.Errorf("breaker events after overloads: %v", evs)
	}

	// Overloads even reset a partial failure streak (liveness proof).
	m.Observe("a", 0, 0, errCallFailed)
	m.Observe("a", 0, 0, errCallFailed)
	m.Observe("a", 0, 0, overloadErr(0))
	if s := snapshotOf(t, m, "a"); s.Fails != 0 {
		t.Errorf("overload did not reset the failure streak: %+v", s)
	}

	// Genuine failures still trip it.
	for i := 0; i < 3; i++ {
		m.Observe("a", 0, 0, errors.New("connection reset"))
	}
	if s := snapshotOf(t, m, "a"); s.Breaker != BreakerOpen {
		t.Fatalf("real failures no longer open the breaker: %+v", s)
	}
}

// TestOverloadPenaltyBiasesPlacement: during the penalty window the
// overloaded server loses placements to an idle peer; once the window
// (sized by the server's own hint) passes, it is schedulable again.
func TestOverloadPenaltyBiasesPlacement(t *testing.T) {
	clk := newClock()
	m := newMetaserver(Config{Policy: placement.LoadOnly}, clk.now)
	_, addrA, dialA := startServer(t, server.Config{Hostname: "a"})
	_, addrB, dialB := startServer(t, server.Config{Hostname: "b"})
	if err := m.AddServer("a", addrA, 100, dialA); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("b", addrB, 100, dialB); err != nil {
		t.Fatal(err)
	}

	m.Observe("a", 0, 0, overloadErr(80))
	for i := 0; i < 3; i++ {
		pl, err := m.Place(ninf.SchedRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Name != "b" {
			t.Fatalf("placement %d landed on the overload-penalized server", i)
		}
		m.Observe("b", 0, 0, nil) // return the optimistic queue credit
	}

	clk.advance(100 * time.Millisecond) // outlive the 80ms hint window
	if s := snapshotOf(t, m, "a"); s.Overloaded {
		t.Error("penalty window did not expire with the hint")
	}
}

// TestOverloadPenaltyHintCap: a corrupt or hostile hint cannot park a
// server out of rotation for more than 30s.
func TestOverloadPenaltyHintCap(t *testing.T) {
	clk := newClock()
	m := newMetaserver(Config{}, clk.now)
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	m.Observe("a", 0, 0, overloadErr(3_600_000)) // one hour, says the server
	m.mu.Lock()
	until := m.servers["a"].overloadUntil
	m.mu.Unlock()
	if d := until.Sub(clk.now()); d != maxOverloadPenalty {
		t.Errorf("penalty window %v, want the 30s cap", d)
	}
}

// TestPlaceSkipsDrainingServer: a server whose stats report Draining
// answers polls (alive, breaker closed) but must receive no
// placements; with every server draining there is nowhere to place.
func TestPlaceSkipsDrainingServer(t *testing.T) {
	m := New(Config{Policy: placement.RoundRobin})
	_, addrA, dialA := startServer(t, server.Config{Hostname: "a"})
	_, addrB, dialB := startServer(t, server.Config{Hostname: "b"})
	if err := m.AddServer("a", addrA, 100, dialA); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("b", addrB, 100, dialB); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.servers["a"].Stats.Draining = true
	m.mu.Unlock()

	for i := 0; i < 4; i++ {
		pl, err := m.Place(ninf.SchedRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Name != "a" {
			continue
		}
		t.Fatalf("placement %d landed on the draining server", i)
	}
	if s := snapshotOf(t, m, "a"); s.Breaker != BreakerClosed || !s.Alive {
		t.Errorf("draining tripped the breaker: %+v", s)
	}

	m.mu.Lock()
	m.servers["b"].Stats.Draining = true
	m.mu.Unlock()
	if _, err := m.Place(ninf.SchedRequest{}); !errors.Is(err, ErrNoServer) {
		t.Errorf("place with every server draining = %v, want ErrNoServer", err)
	}
}

// TestObservationClassifiesError: one function turns a call's error
// into the report both schedulers apply, so an overload rejection —
// however wrapped by the retry and failover layers — carries its hint,
// a refused or stale answer is no failure, and every other error is a
// plain failure.
func TestObservationClassifiesError(t *testing.T) {
	wrapped := &ninf.RetryError{Op: "call", Attempts: 4, Err: overloadErr(70)}
	for _, c := range []struct {
		name string
		err  error
		want protocol.ObserveRequest
	}{
		{"success", nil, protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5}},
		{"failure", errCallFailed, protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5, Failed: true}},
		{"overload", overloadErr(40), protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5, Failed: true, Overloaded: true, RetryAfterMillis: 40}},
		{"wrapped overload", wrapped, protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5, Failed: true, Overloaded: true, RetryAfterMillis: 70}},
		{"other remote error", &protocol.RemoteError{Code: protocol.CodeInternal, RetryAfterMillis: 9}, protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5, Failed: true}},
		{"unknown routine", &protocol.RemoteError{Code: protocol.CodeUnknownRoutine}, protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5, Failed: false}},
		{"bad arguments", &protocol.RemoteError{Code: protocol.CodeBadArguments}, protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5, Failed: false}},
		{"cache miss", &protocol.RemoteError{Code: protocol.CodeCacheMiss}, protocol.ObserveRequest{Name: "a", Bytes: 10, Nanos: 5, Failed: false}},
	} {
		if got := observation("a", 10, 5, c.err); got != c.want {
			t.Errorf("%s: observation = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestRemoteSchedulerObserveRoutesOverload: the daemon protocol
// carries the overload classification end to end — a remote client's
// overload report must penalize placement without advancing the
// breaker, exactly like the in-process path.
func TestRemoteSchedulerObserveRoutesOverload(t *testing.T) {
	m := New(Config{FailThreshold: 2, BreakerCooldown: time.Hour})
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go m.Serve(ml)
	defer ml.Close()
	rs := NewRemoteScheduler(ml.Addr().String())
	defer rs.Close()

	for i := 0; i < 5; i++ {
		rs.Observe("a", 0, 0, overloadErr(200))
	}
	waitSnapshot(t, m, "a", func(s *Snapshot) bool { return s.Overloaded })
	if s := snapshotOf(t, m, "a"); s.Breaker != BreakerClosed || !s.Alive {
		t.Fatalf("remote overloads tripped the breaker: %+v", s)
	}

	// A genuine remote failure still feeds the breaker.
	rs.Observe("a", 0, 0, errors.New("connection reset"))
	rs.Observe("a", 0, 0, errors.New("connection reset"))
	waitSnapshot(t, m, "a", func(s *Snapshot) bool { return s.Breaker == BreakerOpen })
}

// waitSnapshot polls the named server's snapshot until cond holds; the
// daemon applies observations asynchronously from this test's view.
func waitSnapshot(t *testing.T, m *Metaserver, name string, cond func(*Snapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cond(snapshotOf(t, m, name)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot for %q never reached the expected state: %+v", name, snapshotOf(t, m, name))
		}
		time.Sleep(time.Millisecond)
	}
}
