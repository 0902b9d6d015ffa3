package metaserver

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"ninf"
	"ninf/internal/faultnet"
	"ninf/internal/placement"
	"ninf/internal/server"
)

// observeFail feeds n consecutive call failures for the named server.
func observeFail(m *Metaserver, name string, n int) {
	for i := 0; i < n; i++ {
		m.Observe(name, 0, 0, errCallFailed)
	}
}

func snapshotOf(t *testing.T, m *Metaserver, name string) *Snapshot {
	t.Helper()
	for _, s := range m.Servers() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no snapshot for %q", name)
	return nil
}

func TestBreakerOpensOnFailThreshold(t *testing.T) {
	m := New(Config{FailThreshold: 3, BreakerCooldown: time.Hour})
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}

	observeFail(m, "a", 2)
	s := snapshotOf(t, m, "a")
	if s.Breaker != BreakerClosed || !s.Alive || s.Fails != 2 {
		t.Fatalf("below threshold: %+v", s)
	}
	if _, err := m.Place(ninf.SchedRequest{Routine: "dmmul"}); err != nil {
		t.Fatalf("place below threshold: %v", err)
	}

	observeFail(m, "a", 1) // third consecutive failure
	s = snapshotOf(t, m, "a")
	if s.Breaker != BreakerOpen || s.Alive {
		t.Fatalf("at threshold: %+v", s)
	}
	if _, err := m.Place(ninf.SchedRequest{Routine: "dmmul"}); !errors.Is(err, ErrNoServer) {
		t.Fatalf("place with open breaker = %v, want ErrNoServer", err)
	}

	evs := m.BreakerEvents()
	if len(evs) != 1 || evs[0].From != BreakerClosed || evs[0].To != BreakerOpen || evs[0].Server != "a" {
		t.Fatalf("events = %v", evs)
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	clk := newClock()
	m := newMetaserver(Config{FailThreshold: 1, BreakerCooldown: 20 * time.Millisecond}, clk.now)
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}

	observeFail(m, "a", 1)
	if s := snapshotOf(t, m, "a"); s.Breaker != BreakerOpen {
		t.Fatalf("breaker = %v, want open", s.Breaker)
	}
	// During cooldown: no placements.
	if _, err := m.Place(ninf.SchedRequest{}); !errors.Is(err, ErrNoServer) {
		t.Fatalf("place during cooldown = %v", err)
	}
	clk.advance(25 * time.Millisecond)

	// After cooldown: exactly one probe placement is admitted.
	if _, err := m.Place(ninf.SchedRequest{}); err != nil {
		t.Fatalf("half-open probe placement: %v", err)
	}
	if s := snapshotOf(t, m, "a"); s.Breaker != BreakerHalfOpen {
		t.Fatalf("breaker after probe placement = %v, want half-open", s.Breaker)
	}
	if _, err := m.Place(ninf.SchedRequest{}); !errors.Is(err, ErrNoServer) {
		t.Fatalf("second probe admitted while first outstanding: %v", err)
	}

	// Probe succeeds: breaker closes, traffic flows again.
	m.Observe("a", 1000, time.Millisecond, nil)
	if s := snapshotOf(t, m, "a"); s.Breaker != BreakerClosed || !s.Alive {
		t.Fatalf("after probe success: %+v", s)
	}
	if _, err := m.Place(ninf.SchedRequest{}); err != nil {
		t.Fatalf("place after recovery: %v", err)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newClock()
	m := newMetaserver(Config{FailThreshold: 1, BreakerCooldown: 10 * time.Millisecond}, clk.now)
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	observeFail(m, "a", 1)
	clk.advance(15 * time.Millisecond)
	if _, err := m.Place(ninf.SchedRequest{}); err != nil {
		t.Fatal(err)
	}
	m.Observe("a", 0, 0, errCallFailed) // probe fails
	if s := snapshotOf(t, m, "a"); s.Breaker != BreakerOpen {
		t.Fatalf("after failed probe: %+v", s)
	}
	// The cooldown restarted: immediately after, still no placements.
	if _, err := m.Place(ninf.SchedRequest{}); !errors.Is(err, ErrNoServer) {
		t.Fatalf("place right after failed probe = %v", err)
	}
}

// TestDeadRevivedDeadCycle is the regression test for the
// Observe/PollOnce revival symmetry: a server opened (marked dead) by
// call failures must be revived by a successful poll, die again on
// renewed call failures, and be revivable again — with the breaker
// tracking every transition.
func TestDeadRevivedDeadCycle(t *testing.T) {
	m := New(Config{FailThreshold: 2, BreakerCooldown: time.Hour})
	_, addr, dial := startServer(t, server.Config{Hostname: "alpha"})
	if err := m.AddServer("alpha", addr, 100, dial); err != nil {
		t.Fatal(err)
	}

	// Dead by calls.
	observeFail(m, "alpha", 2)
	if s := snapshotOf(t, m, "alpha"); s.Alive || s.Breaker != BreakerOpen {
		t.Fatalf("after call failures: %+v", s)
	}

	// Revived by a successful poll — even though the breaker cooldown
	// has not elapsed: the poll is itself the probe.
	if ok := m.PollOnce(); ok != 1 {
		t.Fatalf("PollOnce = %d, want 1", ok)
	}
	if s := snapshotOf(t, m, "alpha"); !s.Alive || s.Breaker != BreakerClosed || s.Fails != 0 {
		t.Fatalf("after reviving poll: %+v", s)
	}
	if _, err := m.Place(ninf.SchedRequest{}); err != nil {
		t.Fatalf("place after revival: %v", err)
	}

	// Dead again by renewed call failures: the old failure streak must
	// not linger after revival (2 fresh failures needed, not 1).
	observeFail(m, "alpha", 1)
	if s := snapshotOf(t, m, "alpha"); !s.Alive {
		t.Fatalf("died after a single post-revival failure: %+v", s)
	}
	observeFail(m, "alpha", 1)
	if s := snapshotOf(t, m, "alpha"); s.Alive || s.Breaker != BreakerOpen {
		t.Fatalf("after renewed failures: %+v", s)
	}

	// And the mirror image: dead by polls, revived by a successful
	// call observation.
	m.Observe("alpha", 1000, time.Millisecond, nil)
	if s := snapshotOf(t, m, "alpha"); !s.Alive || s.Breaker != BreakerClosed {
		t.Fatalf("after reviving call: %+v", s)
	}

	wantTransitions := []struct{ from, to BreakerState }{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerClosed},
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerClosed},
	}
	evs := m.BreakerEvents()
	if len(evs) != len(wantTransitions) {
		t.Fatalf("breaker events = %v, want %d transitions", evs, len(wantTransitions))
	}
	for i, w := range wantTransitions {
		if evs[i].From != w.from || evs[i].To != w.to {
			t.Errorf("event %d = %v, want %v -> %v", i, evs[i], w.from, w.to)
		}
	}
}

// TestPollFailureOpensBreakerAndCallRevives covers the poll side of
// the symmetry: a server whose address stops answering polls opens the
// breaker; a later successful call closes it.
func TestPollFailureOpensBreakerAndCallRevives(t *testing.T) {
	m := New(Config{FailThreshold: 2, BreakerCooldown: time.Hour})
	in := faultnet.New(faultnet.Plan{Seed: 1})
	_, addr, rawDial := startServer(t, server.Config{})
	dial := in.Dialer(rawDial)
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}

	in.Partition()
	m.PollOnce()
	m.PollOnce()
	if s := snapshotOf(t, m, "a"); s.Alive || s.Breaker != BreakerOpen {
		t.Fatalf("after failed polls: %+v", s)
	}
	if got := in.Counters().DialFailures; got < 2 {
		t.Fatalf("injected dial failures = %d, want >= 2", got)
	}

	in.Heal()
	m.Observe("a", 1000, time.Millisecond, nil)
	if s := snapshotOf(t, m, "a"); !s.Alive || s.Breaker != BreakerClosed {
		t.Fatalf("after reviving call: %+v", s)
	}
}

// TestPlaceFailsOverToLiveServer: with one of two servers' breakers
// open, every placement lands on the live one.
func TestPlaceFailsOverToLiveServer(t *testing.T) {
	m := New(Config{FailThreshold: 1, BreakerCooldown: time.Hour})
	_, addrA, dialA := startServer(t, server.Config{})
	_, addrB, dialB := startServer(t, server.Config{})
	if err := m.AddServer("a", addrA, 100, dialA); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("b", addrB, 100, dialB); err != nil {
		t.Fatal(err)
	}
	observeFail(m, "a", 1)
	for i := 0; i < 8; i++ {
		pl, err := m.Place(ninf.SchedRequest{Routine: "dmmul"})
		if err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
		if pl.Name != "b" {
			t.Fatalf("placement %d went to %q with a's breaker open", i, pl.Name)
		}
	}
}

// TestTransactionFailsOverMidEnd kills a server's network mid-
// transaction and asserts the transaction re-executes its calls on the
// surviving server, with the failover observable via Failovers and the
// breaker events.
func TestTransactionFailsOverMidEnd(t *testing.T) {
	m := New(Config{FailThreshold: 2, BreakerCooldown: time.Hour, Policy: placement.RoundRobin})
	inA := faultnet.New(faultnet.Plan{Seed: 7})
	_, addrA, rawDialA := startServer(t, server.Config{Hostname: "doomed"})
	_, addrB, dialB := startServer(t, server.Config{Hostname: "survivor"})
	if err := m.AddServer("doomed", addrA, 100, inA.Dialer(rawDialA)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("survivor", addrB, 100, dialB); err != nil {
		t.Fatal(err)
	}

	// Sever the doomed server before End so every call placed on it
	// fails at dial time and must reroute.
	inA.Partition()

	tx := ninf.BeginTransaction(m)
	tx.SetMaxAttempts(3)
	tx.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	tx.SetCallTimeout(5 * time.Second)
	n := 8
	mats := make([][]float64, 6)
	for i := range mats {
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		c := make([]float64, n*n)
		for j := range a {
			a[j] = float64(i + j)
			b[j] = float64(j % 5)
		}
		mats[i] = c
		tx.Call("dmmul", n, a, b, c)
	}
	if err := tx.End(); err != nil {
		t.Fatalf("End: %v (events %v)", err, m.BreakerEvents())
	}
	for i, errc := range tx.Errs() {
		if errc != nil {
			t.Errorf("call %d: %v", i, errc)
		}
	}
	// Every call ultimately ran on the survivor.
	for i, servers := range tx.Servers() {
		if len(servers) == 0 || servers[len(servers)-1] != "survivor" {
			t.Errorf("call %d attempted %v, want final attempt on survivor", i, servers)
		}
	}
	// Calls placed on the doomed server observably failed over.
	if tx.Failovers() == 0 {
		t.Error("no failovers recorded; expected calls rerouted off the doomed server")
	}
	if s := snapshotOf(t, m, "doomed"); s.Breaker != BreakerOpen {
		t.Errorf("doomed breaker = %v, want open", s.Breaker)
	}
	if got := inA.Counters().DialFailures; got == 0 {
		t.Error("no dial failures injected; partition did not bite")
	}
	// The injected dial errors look like real refused connections.
	if _, err := inA.Dialer(rawDialA)(); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("partitioned dial error = %v", err)
	}
}
