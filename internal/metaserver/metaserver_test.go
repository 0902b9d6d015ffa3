package metaserver

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"ninf"
	"ninf/internal/library"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// startServer launches a standard-library server and returns its
// dialer and a handle for shutdown/fault injection.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string, func() (net.Conn, error)) {
	t.Helper()
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()
	return s, addr, func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestAddRemoveServers(t *testing.T) {
	m := New(Config{})
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("a", addr, 100, dial); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := m.AddServer("", addr, 100, dial); err == nil {
		t.Error("empty name accepted")
	}
	if err := m.AddServer("b", addr, 100, nil); err == nil {
		t.Error("nil dialer accepted")
	}
	if got := m.Servers(); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("servers = %+v", got)
	}
	m.RemoveServer("a")
	if got := m.Servers(); len(got) != 0 {
		t.Errorf("servers after remove = %+v", got)
	}
	m.RemoveServer("a") // idempotent
}

func TestPollOnce(t *testing.T) {
	m := New(Config{FailThreshold: 2})
	_, addrA, dialA := startServer(t, server.Config{Hostname: "alpha", PEs: 4})
	if err := m.AddServer("alpha", addrA, 100, dialA); err != nil {
		t.Fatal(err)
	}
	// A dead address: connection refused.
	if err := m.AddServer("ghost", "127.0.0.1:1", 100, func() (net.Conn, error) {
		return net.DialTimeout("tcp", "127.0.0.1:1", 100*time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}

	if ok := m.PollOnce(); ok != 1 {
		t.Errorf("PollOnce = %d, want 1", ok)
	}
	snaps := m.Servers()
	SortSnapshotsByName(snaps)
	if snaps[0].Name != "alpha" || !snaps[0].Alive || snaps[0].Stats.PEs != 4 {
		t.Errorf("alpha snapshot = %+v", snaps[0])
	}
	ghost := snaps[1]
	if ghost.Name != "ghost" {
		t.Fatalf("order wrong: %+v", snaps)
	}
	if !ghost.Alive {
		t.Error("ghost dead after a single failure (threshold 2)")
	}
	m.PollOnce()
	snaps = m.Servers()
	SortSnapshotsByName(snaps)
	if snaps[1].Alive {
		t.Error("ghost alive after reaching failure threshold")
	}
}

// TestPollOnceBoundsStalledServer: a server that accepts the probe and
// never answers (a partition, a stopped process) costs PollOnce the
// exchange deadline, not forever, and holds up no other server: the
// healthy one's LastSeen advances and the stalled one counts a failure.
func TestPollOnceBoundsStalledServer(t *testing.T) {
	old := metaExchangeTimeout
	metaExchangeTimeout = 100 * time.Millisecond
	t.Cleanup(func() { metaExchangeTimeout = old })

	m := New(Config{FailThreshold: 3})
	_, addr, dial := startServer(t, server.Config{Hostname: "alpha"})
	if err := m.AddServer("alpha", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 1) // the one poll dials once
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			held <- c // accepted, never read or answered
		}
	}()
	t.Cleanup(func() {
		stall.Close()
		for len(held) > 0 {
			(<-held).Close()
		}
	})
	stallAddr := stall.Addr().String()
	if err := m.AddServer("stalled", stallAddr, 100, func() (net.Conn, error) { return net.Dial("tcp", stallAddr) }); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	done := make(chan int, 1)
	go func() { done <- m.PollOnce() }()
	select {
	case ok := <-done:
		if ok != 1 {
			t.Errorf("PollOnce = %d, want 1", ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PollOnce is still waiting on the stalled server after 5 s")
	}
	if took := time.Since(start); took > 10*metaExchangeTimeout {
		t.Errorf("PollOnce took %v with a %v exchange bound", took, metaExchangeTimeout)
	}
	snaps := m.Servers()
	SortSnapshotsByName(snaps)
	if alpha := snaps[0]; alpha.Name != "alpha" || !alpha.LastSeen.After(start) {
		t.Errorf("healthy server not seen by the poll: %+v", alpha)
	}
	if stalled := snaps[1]; stalled.Name != "stalled" || stalled.Fails != 1 {
		t.Errorf("stalled server: %+v, want one failure counted", stalled)
	}
}

// TestPollStatsBoundsReply: a reply header announcing more than
// daemonMaxPayload fails the poll at once with ErrOversized. Read with
// no limit, the announced size is allocated and the poll waits out the
// exchange deadline for a body that never comes.
func TestPollStatsBoundsReply(t *testing.T) {
	client, fake := net.Pipe()
	t.Cleanup(func() { fake.Close() })
	go func() {
		if _, _, err := protocol.ReadFrame(fake, 0); err != nil {
			return
		}
		var hdr [16]byte
		binary.BigEndian.PutUint32(hdr[0:], protocol.Magic)
		binary.BigEndian.PutUint32(hdr[4:], protocol.Version)
		binary.BigEndian.PutUint32(hdr[8:], uint32(protocol.MsgStatsOK))
		binary.BigEndian.PutUint32(hdr[12:], uint32(daemonMaxPayload+1))
		fake.Write(hdr[:])
	}()
	start := time.Now()
	_, _, err := pollStats(func() (net.Conn, error) { return client, nil })
	if !errors.Is(err, protocol.ErrOversized) {
		t.Fatalf("pollStats = %v, want ErrOversized", err)
	}
	if took := time.Since(start); took >= metaExchangeTimeout {
		t.Errorf("pollStats took %v: it waited for the body", took)
	}
}

func TestPlaceExcludesAndLiveness(t *testing.T) {
	m := New(Config{FailThreshold: 1})
	_, addrA, dialA := startServer(t, server.Config{})
	_, addrB, dialB := startServer(t, server.Config{})
	if err := m.AddServer("a", addrA, 100, dialA); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("b", addrB, 100, dialB); err != nil {
		t.Fatal(err)
	}

	pl, err := m.Place(ninf.SchedRequest{Routine: "busy", Exclude: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name != "b" {
		t.Errorf("placed on %q despite exclusion", pl.Name)
	}

	// A failure observation kills a server at threshold 1.
	m.Observe("b", 0, 0, errCallFailed)
	pl, err = m.Place(ninf.SchedRequest{Routine: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name != "a" {
		t.Errorf("placed on dead server %q", pl.Name)
	}

	// Excluding the only live server leaves nothing.
	if _, err := m.Place(ninf.SchedRequest{Routine: "busy", Exclude: []string{"a"}}); !errors.Is(err, ErrNoServer) {
		t.Errorf("err = %v, want ErrNoServer", err)
	}

	// A successful observation revives.
	m.Observe("b", 1000, time.Millisecond, nil)
	found := false
	for i := 0; i < 8; i++ {
		pl, err = m.Place(ninf.SchedRequest{Routine: "busy"})
		if err != nil {
			t.Fatal(err)
		}
		m.Observe(pl.Name, 1000, time.Millisecond, nil)
		if pl.Name == "b" {
			found = true
		}
	}
	if !found {
		t.Error("revived server never placed")
	}
}

func TestBandwidthEWMA(t *testing.T) {
	m := New(Config{})
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("a", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	// First observation replaces the seed outright.
	m.Observe("a", 1_000_000, time.Second, nil)
	if bw := m.Servers()[0].Bandwidth; bw != 1e6 {
		t.Errorf("bw = %g, want 1e6", bw)
	}
	// Second blends: 0.3·2e6 + 0.7·1e6.
	m.Observe("a", 2_000_000, time.Second, nil)
	if bw := m.Servers()[0].Bandwidth; math.Abs(bw-1.3e6) > 1e-3 {
		t.Errorf("bw = %g, want 1.3e6", bw)
	}
	// Observations for unknown servers are ignored, not a panic.
	m.Observe("zzz", 1, time.Second, nil)
}

func TestLoadOnlyVsBandwidthAware(t *testing.T) {
	// Two servers: "near" has 10 MB/s but is loaded; "far" has
	// 0.1 MB/s and is idle. For a communication-heavy request the
	// bandwidth-aware policy must pick near; load-only picks far.
	near := &Snapshot{Name: "near", Alive: true, PowerMflops: 100, Bandwidth: 10e6}
	near.Stats.LoadAverage = 3
	far := &Snapshot{Name: "far", Alive: true, PowerMflops: 100, Bandwidth: 0.1e6}
	far.Stats.LoadAverage = 0.1
	snaps := []*Snapshot{near, far}

	req := ninf.SchedRequest{Routine: "linsolve", InBytes: 8_000_000, OutBytes: 8_000, Ops: 1_000_000}
	if got := (BandwidthAware{}).Pick(snaps, req); snaps[got].Name != "near" {
		t.Errorf("bandwidth-aware picked %s", snaps[got].Name)
	}
	if got := (LoadOnly{}).Pick(snaps, req); snaps[got].Name != "far" {
		t.Errorf("load-only picked %s", snaps[got].Name)
	}

	// For a compute-heavy request with tiny payload, both policies
	// should avoid the loaded server.
	req = ninf.SchedRequest{Routine: "ep", InBytes: 100, OutBytes: 100, Ops: 50_000_000_000}
	if got := (BandwidthAware{}).Pick(snaps, req); snaps[got].Name != "far" {
		t.Errorf("bandwidth-aware picked %s for compute-bound work", snaps[got].Name)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	m := New(Config{Policy: RoundRobin{}})
	_, addrA, dialA := startServer(t, server.Config{})
	_, addrB, dialB := startServer(t, server.Config{})
	_, addrC, dialC := startServer(t, server.Config{})
	for _, s := range []struct {
		n string
		a string
		d func() (net.Conn, error)
	}{{"a", addrA, dialA}, {"b", addrB, dialB}, {"c", addrC, dialC}} {
		if err := m.AddServer(s.n, s.a, 100, s.d); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		pl, err := m.Place(ninf.SchedRequest{Routine: "busy"})
		if err != nil {
			t.Fatal(err)
		}
		seen[pl.Name]++
	}
	for _, n := range []string{"a", "b", "c"} {
		if seen[n] != 3 {
			t.Errorf("distribution %v not even", seen)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, n := range []string{"load-only", "bandwidth-aware", "round-robin"} {
		p, err := PolicyByName(n)
		if err != nil || p.Name() != n {
			t.Errorf("%s: %v %v", n, p, err)
		}
	}
	if _, err := PolicyByName("magic"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestTransactionFanOutOverMetaserver(t *testing.T) {
	// Four servers; a transaction of four independent EP ranges must
	// spread and merge exactly — the §4.3 metaserver experiment in
	// miniature.
	m := New(Config{Policy: RoundRobin{}})
	for _, name := range []string{"n1", "n2", "n3", "n4"} {
		_, addr, dial := startServer(t, server.Config{})
		if err := m.AddServer(name, addr, 100, dial); err != nil {
			t.Fatal(err)
		}
	}

	mExp := 12
	total := int64(1) << mExp
	parts := 4
	sx := make([]float64, parts)
	sy := make([]float64, parts)
	pairs := make([]int64, parts)
	counts := make([][]int64, parts)

	tx := ninf.BeginTransaction(m)
	for i := 0; i < parts; i++ {
		counts[i] = make([]int64, 10)
		first := total * int64(i) / int64(parts)
		last := total * int64(i+1) / int64(parts)
		tx.Call("ep", mExp, first, last-first, &sx[i], &sy[i], &pairs[i], counts[i])
	}
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}

	var totPairs int64
	for i := 0; i < parts; i++ {
		totPairs += pairs[i]
	}
	if totPairs == 0 {
		t.Fatal("no pairs accumulated")
	}
	// Each call must actually have run (reports present) and across 4
	// servers at least 2 distinct ones must have been used.
	reports := tx.Reports()
	if len(reports) != parts {
		t.Fatalf("%d reports", len(reports))
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("call %d has no report", i)
		}
	}
}

func TestTransactionRetriesOnFault(t *testing.T) {
	m := New(Config{Policy: RoundRobin{}, FailThreshold: 1})
	sA, addrA, dialA := startServer(t, server.Config{})
	_, addrB, dialB := startServer(t, server.Config{})
	if err := m.AddServer("a", addrA, 100, dialA); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("b", addrB, 100, dialB); err != nil {
		t.Fatal(err)
	}

	// Every call to server A fails; the transaction must converge on B.
	sA.FailNextCalls(1 << 20)
	var sx, sy float64
	var pairs int64
	tx := ninf.BeginTransaction(m)
	tx.Call("ep", 10, 0, int64(1)<<10, &sx, &sy, &pairs, nil)
	tx.Call("ep", 10, 0, int64(1)<<10, &sx, &sy, &pairs, nil)
	if err := tx.End(); err != nil {
		t.Fatalf("transaction failed despite a healthy server: %v", err)
	}
	if pairs == 0 {
		t.Error("results not stored")
	}
}

func TestTransactionAllServersDead(t *testing.T) {
	m := New(Config{FailThreshold: 1})
	sA, addrA, dialA := startServer(t, server.Config{})
	if err := m.AddServer("a", addrA, 100, dialA); err != nil {
		t.Fatal(err)
	}
	sA.FailNextCalls(1 << 20)
	tx := ninf.BeginTransaction(m)
	tx.Call("busy", 1)
	if err := tx.End(); err == nil {
		t.Error("transaction succeeded with no healthy server")
	}
}

func TestDaemonScheduleObserve(t *testing.T) {
	m := New(Config{Policy: RoundRobin{}})
	_, addrA, dialA := startServer(t, server.Config{})
	if err := m.AddServer("a", addrA, 100, dialA); err != nil {
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

	pl, err := rs.Place(ninf.SchedRequest{Routine: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name != "a" {
		t.Errorf("placed on %q", pl.Name)
	}
	// The placement is directly usable for a call.
	c, err := ninf.NewClient(pl.Dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("busy", 1); err != nil {
		t.Fatal(err)
	}
	rs.Observe("a", 1000, time.Millisecond, nil)

	// A transaction through the remote scheduler works end to end.
	var sx, sy float64
	var pairs int64
	tx := ninf.BeginTransaction(rs)
	tx.Call("ep", 8, 0, int64(1)<<8, &sx, &sy, &pairs, nil)
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	if pairs == 0 {
		t.Error("no results via remote scheduler")
	}
}

func TestDaemonErrors(t *testing.T) {
	m := New(Config{}) // no servers registered
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go m.Serve(ml)
	defer ml.Close()

	rs := NewRemoteScheduler(ml.Addr().String())
	defer rs.Close()
	if _, err := rs.Place(ninf.SchedRequest{Routine: "busy"}); err == nil {
		t.Error("placement with no servers succeeded")
	}

	// Ping must work against the daemon too.
	conn, err := net.Dial("tcp", ml.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := protocol.WriteFrame(conn, protocol.MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, err := protocol.ReadFrame(conn, 0)
	if err != nil || typ != protocol.MsgPong {
		t.Errorf("ping → %v, %v", typ, err)
	}
}

func TestMonitorLoop(t *testing.T) {
	m := New(Config{})
	_, addr, dial := startServer(t, server.Config{Hostname: "mon"})
	if err := m.AddServer("mon", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	stop := m.StartMonitor(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := m.Servers()[0]; s.Stats.Hostname == "mon" {
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("monitor never polled")
}
