package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ninf"
	"ninf/internal/library"
	"ninf/internal/metaserver"
	"ninf/internal/placement"
	"ninf/internal/server"
)

// meta-ha measures what metaserver replication buys under a control
// plane crash: four clients push verified dmmul transactions through
// the scheduler while the primary metaserver is hard-killed between
// the "before" and "during" windows. With three gossiping replicas the
// clients fail over and goodput holds through the kill; the
// single-metaserver control (the pre-HA deployment, no failover
// targets, no usable placement cache) collapses to zero the moment its
// only metaserver dies. A full run records the cells in
// BENCH_meta_ha.json.

// metaHACell is one (mode, phase) goodput window, as serialized.
type metaHACell struct {
	Mode      string  `json:"mode"`  // "ha3" or "single"
	Phase     string  `json:"phase"` // "before", "during", "after"
	Seconds   float64 `json:"seconds"`
	Calls     int64   `json:"calls"`  // verified completed calls
	Failed    int64   `json:"failed"` // transactions that gave up
	GoodputPS float64 `json:"goodput_per_s"`
	Degraded  int64   `json:"degraded_placements"`
}

// metaHAFile is the BENCH_meta_ha.json document.
type metaHAFile struct {
	Experiment string       `json:"experiment"`
	Generated  time.Time    `json:"generated"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	Replicas   int          `json:"replicas"`
	Clients    int          `json:"clients"`
	Servers    int          `json:"servers"`
	Cells      []metaHACell `json:"cells"`
}

func init() {
	e := &Experiment{
		ID:       "meta-ha",
		Title:    "goodput before/during/after a primary metaserver kill, 3 replicas vs single",
		Artifact: "§2.4 metaserver availability (HA extension)",
	}
	e.Run = func(w io.Writer, opts Options) error {
		header(w, e)
		return runMetaHA(w, opts)
	}
	register(e)
}

const (
	metaHAClients = 4
	metaHAServers = 3
)

// metaHADaemon is a killable metaserver daemon: closing it severs the
// listener and every live client connection, as a crashed process
// would.
type metaHADaemon struct {
	m    *metaserver.Metaserver
	addr string
	l    net.Listener
	stop []func()

	mu    sync.Mutex
	conns map[net.Conn]bool
	dead  bool
}

func startMetaHADaemon(m *metaserver.Metaserver) (*metaHADaemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &metaHADaemon{m: m, addr: l.Addr().String(), l: l, conns: make(map[net.Conn]bool)}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			if d.dead {
				d.mu.Unlock()
				c.Close()
				continue
			}
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
	return d, nil
}

func (d *metaHADaemon) kill() {
	d.l.Close()
	d.mu.Lock()
	d.dead = true
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	for _, stop := range d.stop {
		stop()
	}
	d.stop = nil
}

// metaHAWorld is one mode's full deployment: real servers, replica
// daemons, and per-client schedulers.
type metaHAWorld struct {
	servers   []*server.Server
	daemons   []*metaHADaemon
	scheds    []*metaserver.RemoteScheduler
	cacheless bool
}

// cachelessScheduler is the pre-HA client: no degraded fallback, so a
// placement the cache would serve is refused instead.
type cachelessScheduler struct{ *metaserver.RemoteScheduler }

func (s cachelessScheduler) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	pl, err := s.RemoteScheduler.Place(req)
	if err == nil && pl.Degraded {
		return ninf.Placement{}, errors.New("metaha: no metaserver reachable")
	}
	return pl, err
}

func buildMetaHAWorld(nMeta int, cacheless bool) (*metaHAWorld, error) {
	w := &metaHAWorld{cacheless: cacheless}
	type srv struct{ name, addr string }
	var srvs []srv
	for i := 0; i < metaHAServers; i++ {
		reg, err := library.NewRegistry()
		if err != nil {
			w.close()
			return nil, err
		}
		s := server.New(server.Config{Hostname: fmt.Sprintf("srv%d", i), PEs: 4}, reg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		go s.Serve(l)
		w.servers = append(w.servers, s)
		srvs = append(srvs, srv{fmt.Sprintf("srv%d", i), l.Addr().String()})
	}
	for i := 0; i < nMeta; i++ {
		m := metaserver.New(metaserver.Config{
			Origin:          fmt.Sprintf("meta-%d", i),
			Policy:          placement.RoundRobin,
			FailThreshold:   8,
			BreakerCooldown: 300 * time.Millisecond,
		})
		for _, sv := range srvs {
			addr := sv.addr
			if err := m.AddServer(sv.name, addr, 100, func() (net.Conn, error) {
				return net.Dial("tcp", addr)
			}); err != nil {
				w.close()
				return nil, err
			}
		}
		d, err := startMetaHADaemon(m)
		if err != nil {
			w.close()
			return nil, err
		}
		w.daemons = append(w.daemons, d)
	}
	for i, d := range w.daemons {
		for j, other := range w.daemons {
			if i == j {
				continue
			}
			if err := d.m.AddPeer(other.addr, nil); err != nil {
				w.close()
				return nil, err
			}
		}
		if nMeta > 1 {
			d.stop = append(d.stop, d.m.StartGossip(100*time.Millisecond))
		}
		d.stop = append(d.stop, d.m.StartMonitor(150*time.Millisecond))
	}
	for c := 0; c < metaHAClients; c++ {
		var addrs []string
		for _, d := range w.daemons {
			addrs = append(addrs, d.addr)
		}
		w.scheds = append(w.scheds, metaserver.NewRemoteScheduler(addrs...))
	}
	return w, nil
}

func (w *metaHAWorld) close() {
	for _, rs := range w.scheds {
		rs.Close()
	}
	for _, d := range w.daemons {
		d.kill()
	}
	for _, s := range w.servers {
		s.Close()
	}
}

// metaHAPhase drives every client in verified single-call dmmul
// transactions for dur and returns the goodput cell.
func (w *metaHAWorld) metaHAPhase(mode, phase string, dur time.Duration) metaHACell {
	const n = 8
	var calls, failed, degraded int64
	var wg sync.WaitGroup
	start := time.Now()
	for c, rs := range w.scheds {
		wg.Add(1)
		go func(c int, rs *metaserver.RemoteScheduler) {
			defer wg.Done()
			for r := 0; time.Since(start) < dur; r++ {
				a := make([]float64, n*n)
				b := make([]float64, n*n)
				got := make([]float64, n*n)
				for j := range a {
					a[j] = float64((c+1)*(r+1) + j)
					b[j] = float64(j % 7)
				}
				want := make([]float64, n*n)
				metaHAMmul(n, a, b, want)
				var sched ninf.Scheduler = rs
				if w.cacheless {
					sched = cachelessScheduler{rs}
				}
				tx := ninf.BeginTransaction(sched)
				tx.SetMaxAttempts(2 * metaHAServers)
				tx.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
				tx.SetCallTimeout(2 * time.Second)
				tx.Call("dmmul", n, a, b, got)
				err := tx.End()
				atomic.AddInt64(&degraded, int64(tx.DegradedPlacements()))
				if err != nil {
					atomic.AddInt64(&failed, 1)
					continue
				}
				ok := true
				for j := range want {
					if got[j] != want[j] {
						ok = false
						break
					}
				}
				if ok {
					atomic.AddInt64(&calls, 1)
				} else {
					atomic.AddInt64(&failed, 1)
				}
			}
		}(c, rs)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	return metaHACell{
		Mode:      mode,
		Phase:     phase,
		Seconds:   wall,
		Calls:     calls,
		Failed:    failed,
		GoodputPS: float64(calls) / wall,
		Degraded:  degraded,
	}
}

func metaHAMmul(n int, a, b, c []float64) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func runMetaHA(w io.Writer, opts Options) error {
	phaseDur := 2 * time.Second
	if opts.Quick {
		phaseDur = 300 * time.Millisecond
	}
	fmt.Fprintf(w, "-- %d clients, %d servers, verified dmmul(8) transactions, %.1fs phases; primary killed before 'during' --\n",
		metaHAClients, metaHAServers, phaseDur.Seconds())
	fmt.Fprintf(w, "%-7s %-7s %8s %8s %11s %9s\n", "mode", "phase", "calls", "failed", "goodput/s", "degraded")

	var cells []metaHACell
	for _, mode := range []struct {
		name      string
		replicas  int
		cacheless bool
	}{{"ha3", 3, false}, {"single", 1, true}} {
		world, err := buildMetaHAWorld(mode.replicas, mode.cacheless)
		if err != nil {
			return err
		}
		for _, phase := range []string{"before", "during", "after"} {
			if phase == "during" {
				world.daemons[0].kill()
			}
			cell := world.metaHAPhase(mode.name, phase, phaseDur)
			cells = append(cells, cell)
			fmt.Fprintf(w, "%-7s %-7s %8d %8d %11.1f %9d\n",
				cell.Mode, cell.Phase, cell.Calls, cell.Failed, cell.GoodputPS, cell.Degraded)
		}
		world.close()
	}

	// The headline comparison: replicated goodput through the kill vs
	// the single-metaserver collapse.
	pick := func(mode, phase string) metaHACell {
		for _, c := range cells {
			if c.Mode == mode && c.Phase == phase {
				return c
			}
		}
		return metaHACell{}
	}
	haB, haD := pick("ha3", "before"), pick("ha3", "during")
	sgB, sgD := pick("single", "before"), pick("single", "during")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	fmt.Fprintf(w, "-- ha3 holds %.0f%% of pre-kill goodput through the kill (%d failed); single drops to %.0f%% (%d failed) --\n",
		100*ratio(haD.GoodputPS, haB.GoodputPS), haD.Failed,
		100*ratio(sgD.GoodputPS, sgB.GoodputPS), sgD.Failed)

	if opts.Quick {
		return nil
	}
	doc := metaHAFile{
		Experiment: "meta-ha",
		Generated:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Replicas:   3,
		Clients:    metaHAClients,
		Servers:    metaHAServers,
		Cells:      cells,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile("BENCH_meta_ha.json", blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote BENCH_meta_ha.json (%d cells)\n", len(cells))
	return nil
}
