package ninf_test

// The metaserver-HA chaos suite proves the control plane's
// availability story end to end: three gossiping metaserver replicas
// place a 4-client transaction workload on 3 servers while the primary
// replica is hard-killed mid-run (its network partitioned, its daemon
// and every live connection severed). Every call must complete exactly
// once with verified results — zero failed calls — and the surviving
// replicas must converge on what happened. A second scenario kills
// every replica: clients with a warm placement cache finish the
// workload in degraded mode while a cacheless control client fails,
// proving the cache (not luck) carries it.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/faultnet"
	"ninf/internal/library"
	"ninf/internal/metaserver"
	"ninf/internal/placement"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// haDaemon is one metaserver replica's daemon, killable the way a
// crashed process disappears: listener closed, live connections
// severed.
type haDaemon struct {
	m    *metaserver.Metaserver
	addr string
	l    net.Listener

	mu    sync.Mutex
	conns map[net.Conn]bool
}

func startHADaemon(t *testing.T, m *metaserver.Metaserver) *haDaemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &haDaemon{m: m, addr: l.Addr().String(), l: l, conns: make(map[net.Conn]bool)}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			d.conns[c] = true
			d.mu.Unlock()
			go func() {
				defer func() {
					c.Close()
					d.mu.Lock()
					delete(d.conns, c)
					d.mu.Unlock()
				}()
				m.ServeConn(c)
			}()
		}
	}()
	t.Cleanup(d.kill)
	return d
}

func (d *haDaemon) kill() {
	d.l.Close()
	d.mu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
}

// haWorld is a replicated control plane: nMeta gossiping metaserver
// replicas, each monitoring the same three computational servers, with
// every client→metaserver link behind a seeded fault injector.
type haWorld struct {
	metas     []*metaserver.Metaserver
	daemons   []*haDaemon
	stops     []func()             // per-replica gossip + monitor loops
	injectors []*faultnet.Injector // client→meta links, per replica
	names     []string             // server names
}

func buildHAWorld(t *testing.T, nMeta int, seed int64) *haWorld {
	t.Helper()
	w := &haWorld{}

	type srv struct {
		name string
		addr string
	}
	var srvs []srv
	for i := 0; i < chaosServers; i++ {
		name := fmt.Sprintf("srv%d", i)
		reg, err := library.NewRegistry()
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{Hostname: name, PEs: 4}, reg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l)
		t.Cleanup(func() { s.Close() })
		srvs = append(srvs, srv{name, l.Addr().String()})
		w.names = append(w.names, name)
	}

	for i := 0; i < nMeta; i++ {
		m := metaserver.New(metaserver.Config{
			Origin:          fmt.Sprintf("meta-%d", i),
			Policy:          placement.RoundRobin,
			FailThreshold:   8, // correlated burst tolerance, as in buildChaosWorld
			BreakerCooldown: 300 * time.Millisecond,
		})
		for _, sv := range srvs {
			addr := sv.addr
			if err := m.AddServer(sv.name, addr, 100, func() (net.Conn, error) {
				return net.Dial("tcp", addr)
			}); err != nil {
				t.Fatal(err)
			}
		}
		w.metas = append(w.metas, m)
		w.daemons = append(w.daemons, startHADaemon(t, m))
		w.injectors = append(w.injectors, faultnet.New(faultnet.Plan{Seed: seed + int64(i)}))
	}
	for i, m := range w.metas {
		for j, d := range w.daemons {
			if i == j {
				continue
			}
			if err := m.AddPeer(d.addr, nil); err != nil {
				t.Fatal(err)
			}
		}
		stopG := m.StartGossip(100 * time.Millisecond)
		stopM := m.StartMonitor(150 * time.Millisecond)
		w.stops = append(w.stops, func() { stopG(); stopM() })
	}
	t.Cleanup(func() {
		for _, stop := range w.stops {
			stop()
		}
	})
	return w
}

// killMeta takes replica i down hard: client links partition (live
// connections reset, dials refused), the daemon dies, and its
// background loops stop — the replica is gone, not napping.
func (w *haWorld) killMeta(i int) {
	w.injectors[i].Partition()
	w.daemons[i].kill()
	w.stops[i]()
	w.stops[i] = func() {}
}

// scheduler builds one client's RemoteScheduler over every replica,
// dialing through the per-replica injectors.
func (w *haWorld) scheduler(t *testing.T) *metaserver.RemoteScheduler {
	t.Helper()
	rs := &metaserver.RemoteScheduler{}
	for i, d := range w.daemons {
		addr := d.addr
		rs.AddMeta(addr, w.injectors[i].Dialer(func() (net.Conn, error) {
			return net.Dial("tcp", addr)
		}))
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// haTx runs one verified multi-call transaction for client c, round r.
func haTx(t *testing.T, sched ninf.Scheduler, c, r, calls int) (*ninf.Transaction, error) {
	t.Helper()
	const n = 8
	tx := ninf.BeginTransaction(sched)
	tx.SetMaxAttempts(2 * chaosServers)
	tx.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	tx.SetCallTimeout(2 * time.Second)
	type expect struct{ got, want []float64 }
	var expects []expect
	for k := 0; k < calls; k++ {
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		got := make([]float64, n*n)
		for j := range a {
			a[j] = float64((c+1)*(r+1) + j)
			b[j] = float64(j%7) + float64(k)
		}
		want := make([]float64, n*n)
		mmul(n, a, b, want)
		expects = append(expects, expect{got, want})
		tx.Call("dmmul", n, a, b, got)
	}
	if err := tx.EndContext(testContext(t)); err != nil {
		return tx, err
	}
	for k, e := range expects {
		for j := range e.want {
			if e.got[j] != e.want[j] {
				return tx, fmt.Errorf("client %d round %d call %d: result differs at %d: %g vs %g",
					c, r, k, j, e.got[j], e.want[j])
			}
		}
	}
	return tx, nil
}

// TestChaosMetaserverPrimaryKill is the tentpole acceptance scenario:
// 4 clients drive 3 servers through a 3-replica metaserver set, the
// primary is hard-killed mid-run, and every call completes exactly
// once — zero failed calls — because every client fails over to the
// surviving replicas. Afterwards the survivors' gossip has converged:
// they agree on server liveness and on the deduplicated count of
// client-reported outcomes.
func TestChaosMetaserverPrimaryKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	const rounds, callsPerT = 10, 4
	w := buildHAWorld(t, 3, chaosSeed+101)

	var killOnce sync.Once
	killed := make(chan struct{})
	killRound := rounds / 2
	var (
		mu     sync.Mutex
		failed []error
		done   int
	)
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rs := w.scheduler(t)
			for r := 0; r < rounds; r++ {
				// The kill is a barrier: no client may run its post-kill
				// rounds early, so every client provably places through
				// the failover path (a fast client racing to the end
				// before the kill would make the Fails assertions below
				// vacuously flaky).
				if r >= killRound {
					if c == 0 {
						killOnce.Do(func() { w.killMeta(0); close(killed) })
					}
					<-killed
				}
				_, err := haTx(t, rs, c, r, callsPerT)
				mu.Lock()
				if err != nil {
					failed = append(failed, fmt.Errorf("client %d round %d: %w", c, r, err))
				} else {
					done += callsPerT
				}
				mu.Unlock()
			}
			st := rs.Status()
			if st.Metas[0].Fails == 0 {
				t.Errorf("client %d never saw the primary fail: %+v", c, st.Metas[0])
			}
			if st.Metas[0].Current {
				t.Errorf("client %d still prefers the dead primary: %+v", c, st)
			}
			if st.DegradedPlacements != 0 {
				t.Errorf("client %d used degraded placements with replicas alive: %d", c, st.DegradedPlacements)
			}
		}(c)
	}
	wg.Wait()

	for _, err := range failed {
		t.Errorf("failed call: %v", err)
	}
	total := chaosClients * rounds * callsPerT
	if done != total {
		t.Errorf("completed %d/%d calls exactly once", done, total)
	}

	// The kill actually struck: clients had their connections reset or
	// their re-dials refused by the partition.
	cnt := w.injectors[0].Counters()
	t.Logf("primary injector: %v", cnt)
	if cnt.DialFailures == 0 && cnt.Resets == 0 {
		t.Error("primary kill never touched live client traffic; the failover was not exercised")
	}

	// Survivor convergence: force a final anti-entropy round each way,
	// then the two replicas must agree per server on liveness and on
	// the deduplicated outcome count.
	w.metas[1].GossipOnce()
	w.metas[2].GossipOnce()
	for _, name := range w.names {
		c1, c2 := w.metas[1].ObservationCount(name), w.metas[2].ObservationCount(name)
		if c1 != c2 {
			t.Errorf("replicas disagree on %s outcomes after gossip: %d vs %d", name, c1, c2)
		}
	}
	s1, s2 := w.metas[1].Servers(), w.metas[2].Servers()
	metaserver.SortSnapshotsByName(s1)
	metaserver.SortSnapshotsByName(s2)
	for i := range s1 {
		if s1[i].Alive != s2[i].Alive {
			t.Errorf("replicas disagree on %s liveness: %v vs %v", s1[i].Name, s1[i].Alive, s2[i].Alive)
		}
	}
	obs := 0
	for _, name := range w.names {
		obs += w.metas[1].ObservationCount(name)
	}
	if obs == 0 {
		t.Error("no outcome reports reached the survivors; the convergence check proved nothing")
	}
}

// TestChaosMetaserverTotalOutageDegrades kills every replica: clients
// that warmed their placement cache finish the workload in degraded
// mode (placements marked, exactly-once results verified), while a
// control client with no cache — the pre-HA behavior — fails.
func TestChaosMetaserverTotalOutageDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	w := buildHAWorld(t, 2, chaosSeed+202)

	// Warm each client's cache with one live round.
	scheds := make([]*metaserver.RemoteScheduler, chaosClients)
	for c := range scheds {
		scheds[c] = w.scheduler(t)
		if _, err := haTx(t, scheds[c], c, 0, 2); err != nil {
			t.Fatalf("warm round, client %d: %v", c, err)
		}
	}
	// The control client shares the dead replica set but has no cache.
	control := w.scheduler(t)

	for i := range w.metas {
		w.killMeta(i)
	}

	var wg sync.WaitGroup
	errs := make([]error, chaosClients)
	degraded := make([]int, chaosClients)
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tx, err := haTx(t, scheds[c], c, 1, 3)
			errs[c] = err
			degraded[c] = tx.DegradedPlacements()
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d failed in degraded mode: %v", c, err)
		}
		if degraded[c] == 0 {
			t.Errorf("client %d completed without degraded placements under a total outage", c)
		}
	}

	if _, err := haTx(t, control, 9, 1, 1); err == nil {
		t.Error("cacheless control client succeeded with every metaserver dead; degraded mode proved nothing")
	}
}

// TestChaosMetaserverPartitionHealConverges partitions the gossip link
// between two replicas, lets a client's outcome stream split across
// them — including one report replayed to both, the post-failover
// double delivery — then heals and requires full convergence: equal
// deduplicated outcome counts, agreeing liveness, and the replayed
// failure counted once per replica, not twice.
func TestChaosMetaserverPartitionHealConverges(t *testing.T) {
	_, addr, sdial := startServerT(t, "s0")
	a := metaserver.New(metaserver.Config{Origin: "meta-a"})
	b := metaserver.New(metaserver.Config{Origin: "meta-b"})
	if err := a.AddServer("s0", addr, 100, sdial); err != nil {
		t.Fatal(err)
	}
	da := startHADaemon(t, a)
	db := startHADaemon(t, b)
	linkA := faultnet.New(faultnet.Plan{}) // a's link to b
	linkB := faultnet.New(faultnet.Plan{}) // b's link to a
	if err := a.AddPeer(db.addr, linkA.Dialer(func() (net.Conn, error) { return net.Dial("tcp", db.addr) })); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(da.addr, linkB.Dialer(func() (net.Conn, error) { return net.Dial("tcp", da.addr) })); err != nil {
		t.Fatal(err)
	}
	if got := a.GossipOnce(); got != 1 {
		t.Fatalf("initial gossip = %d peers", got)
	}
	if len(b.Servers()) != 1 {
		t.Fatal("registration did not replicate before the partition")
	}

	linkA.Partition()
	linkB.Partition()

	// A client reports through the daemon: four successes to A, then a
	// failure whose ack is lost — it lands on A and is replayed
	// verbatim (same origin, same seq) to B, the classic post-failover
	// double delivery.
	rsA := metaserver.NewRemoteScheduler(da.addr)
	rsA.Origin = "client-1"
	t.Cleanup(func() { rsA.Close() })
	for i := 0; i < 4; i++ {
		rsA.Observe("s0", 1024, time.Millisecond, nil)
	}
	rsA.Observe("s0", 0, 0, errors.New("call failed")) // seq 5 at A
	b.ObserveRemote(protocol.ObserveRequest{Name: "s0", Failed: true, Origin: "client-1", Seq: 5})

	if got := a.GossipOnce(); got != 0 {
		t.Fatalf("gossip crossed the partition: %d", got)
	}
	if ps := a.Peers(); ps[0].Fails == 0 {
		t.Error("partitioned peer shows no failed exchanges")
	}

	linkA.Heal()
	linkB.Heal()
	a.GossipOnce()
	b.GossipOnce()

	ca, cb := a.ObservationCount("s0"), b.ObservationCount("s0")
	if ca != cb {
		t.Errorf("replicas disagree after heal: %d vs %d observations", ca, cb)
	}
	sa, sb := a.Servers()[0], b.Servers()[0]
	if sa.Alive != sb.Alive {
		t.Errorf("liveness disagrees after heal: %v vs %v", sa.Alive, sb.Alive)
	}
	if ps := a.Peers(); !ps[0].Alive || ps[0].Fails != 0 {
		t.Errorf("healed peer still unhealthy: %+v", ps[0])
	}
}

// startServerT is a local helper mirroring the metaserver package's
// startServer for this suite.
func startServerT(t *testing.T, host string) (*server.Server, string, func() (net.Conn, error)) {
	t.Helper()
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Hostname: host, PEs: 4}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()
	return s, addr, func() (net.Conn, error) { return net.Dial("tcp", addr) }
}
