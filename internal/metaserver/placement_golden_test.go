package metaserver

// Golden table of placement decisions. Each scenario registers servers
// whose Stats and execution traces come from a table (fake dialers
// answer MsgStats/MsgTrace, then one PollOnce), feeds call outcomes
// through ObserveRemote (bandwidth, overload windows, breaker streaks)
// and asks for successive placements, so rotation and the optimistic
// queue count show; it runs under each of the three policies. A last
// scenario places through a RemoteScheduler whose replica has gone, so
// the degraded cache answers; its affinity rows were added when the
// cache began placing through placement.Pick. The decisions and each server's final
// snapshot are compared with testdata/placement.golden. Regenerate with
//
//	go test -run PlacementGolden ./internal/metaserver -update
//
// only when a placement change is intended, and review the diff row by
// row. The test uses exported API only.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/protocol"
)

// fakeServer answers a poll — MsgStats then MsgTrace — from fixed data.
func fakeServer(st protocol.Stats, trace []protocol.RoutineTrace) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		go func() {
			defer s.Close()
			for {
				typ, _, err := protocol.ReadFrame(s, daemonMaxPayload)
				if err != nil {
					return
				}
				switch typ {
				case protocol.MsgStats:
					err = protocol.WriteFrame(s, protocol.MsgStatsOK, st.Encode())
				case protocol.MsgTrace:
					err = protocol.WriteFrame(s, protocol.MsgTraceOK, protocol.EncodeTraces(trace))
				default:
					return
				}
				if err != nil {
					return
				}
			}
		}()
		return c, nil
	}
}

// deadServer refuses every dial: its polls fail.
func deadServer() (net.Conn, error) { return nil, errors.New("refused") }

type goldenServer struct {
	name  string
	power float64
	st    protocol.Stats
	trace map[string]time.Duration
	dead  bool
}

type goldenScenario struct {
	name    string
	cfg     Config
	servers []goldenServer
	// prep runs after the poll: observations, waits.
	prep func(m *Metaserver)
	reqs []ninf.SchedRequest
}

var (
	commReq    = ninf.SchedRequest{Routine: "linsolve", InBytes: 8_000_000, OutBytes: 8_000, Ops: 1_000_000}
	computeReq = ninf.SchedRequest{Routine: "ep", InBytes: 100, OutBytes: 100, Ops: 50_000_000_000}
	traceReq   = ninf.SchedRequest{Routine: "render", InBytes: 1000, OutBytes: 1000}
	plainReq   = ninf.SchedRequest{Routine: "busy"}
)

func observeBW(m *Metaserver, name string, bytesPerSec int64) {
	m.ObserveRemote(protocol.ObserveRequest{Name: name, Bytes: bytesPerSec, Nanos: int64(time.Second)})
}

func goldenScenarios() []goldenScenario {
	idle := protocol.Stats{PEs: 4}
	loaded := func(la float64, queued, running int64) protocol.Stats {
		return protocol.Stats{PEs: 4, LoadAverage: la, Queued: queued, Running: running}
	}
	three := []goldenServer{{name: "a", power: 100, st: idle}, {name: "b", power: 100, st: idle}, {name: "c", power: 100, st: idle}}
	return []goldenScenario{
		{
			name:    "ties",
			servers: three,
			reqs:    []ninf.SchedRequest{plainReq, plainReq, plainReq, plainReq, commReq, computeReq, plainReq},
		},
		{
			name: "load",
			servers: []goldenServer{
				{name: "busy", power: 100, st: loaded(3, 0, 2)},
				{name: "queued", power: 100, st: loaded(0.5, 4, 0)},
				{name: "idle", power: 100, st: loaded(0.1, 0, 0)},
			},
			reqs: []ninf.SchedRequest{plainReq, plainReq, commReq, computeReq, plainReq, plainReq},
		},
		{
			name: "bandwidth",
			servers: []goldenServer{
				{name: "near", power: 100, st: loaded(3, 0, 0)},
				{name: "far", power: 100, st: loaded(0.1, 0, 0)},
			},
			prep: func(m *Metaserver) {
				observeBW(m, "near", 10_000_000)
				observeBW(m, "far", 100_000)
			},
			reqs: []ninf.SchedRequest{commReq, computeReq, commReq, plainReq},
		},
		{
			name:    "overload",
			servers: three,
			prep: func(m *Metaserver) {
				m.ObserveRemote(protocol.ObserveRequest{Name: "a", Failed: true, Overloaded: true, RetryAfterMillis: 60_000})
				m.ObserveRemote(protocol.ObserveRequest{Name: "b", Failed: true, Overloaded: true, RetryAfterMillis: 20_000})
			},
			reqs: []ninf.SchedRequest{plainReq, commReq, computeReq, plainReq, plainReq},
		},
		{
			name: "overload-everywhere",
			servers: []goldenServer{
				{name: "a", power: 100, st: loaded(1, 0, 0)},
				{name: "b", power: 100, st: idle},
			},
			prep: func(m *Metaserver) {
				m.ObserveRemote(protocol.ObserveRequest{Name: "a", Failed: true, Overloaded: true})
				m.ObserveRemote(protocol.ObserveRequest{Name: "b", Failed: true, Overloaded: true, RetryAfterMillis: 10_000})
			},
			reqs: []ninf.SchedRequest{plainReq, computeReq, plainReq},
		},
		{
			name: "trace-fallback",
			servers: []goldenServer{
				{name: "slow", power: 100, st: idle, trace: map[string]time.Duration{"render": 10 * time.Second}},
				{name: "fast", power: 100, st: idle, trace: map[string]time.Duration{"render": 100 * time.Millisecond}},
				{name: "blind", power: 100, st: loaded(2, 0, 0)},
			},
			reqs: []ninf.SchedRequest{traceReq, traceReq, {Routine: "render", Ops: 1 << 30}, {Routine: "unknown"}},
		},
		{
			name: "affinity",
			cfg:  Config{FailThreshold: 1, BreakerCooldown: time.Hour},
			servers: []goldenServer{
				{name: "a", power: 100, st: idle},
				{name: "b", power: 100, st: loaded(5, 3, 3)},
				{name: "c", power: 100, st: idle},
				{name: "down", power: 100, st: idle},
			},
			prep: func(m *Metaserver) { observeFail(m, "down", 1) },
			reqs: []ninf.SchedRequest{
				{Routine: "busy", Affinity: "b"},
				{Routine: "busy", Affinity: "b"},
				plainReq,
				{Routine: "busy", Affinity: "nosuch"},
				{Routine: "busy", Affinity: "b", Exclude: []string{"b"}},
				{Routine: "busy", Affinity: "down"},
				plainReq,
			},
		},
		{
			name:    "all-excluded",
			servers: three,
			reqs: []ninf.SchedRequest{
				{Routine: "busy", Exclude: []string{"a", "b", "c"}},
				{Routine: "busy", Exclude: []string{"a", "c"}},
				{Routine: "busy", Exclude: []string{"a", "b", "c"}, Affinity: "a"},
			},
		},
		{
			name: "zero-power-bandwidth",
			servers: []goldenServer{
				{name: "powerless", power: 0, st: idle},
				{name: "trickle", power: 100, st: idle},
				{name: "plain", power: 100, st: idle},
			},
			prep: func(m *Metaserver) {
				// The smallest bandwidth an observation can leave: one
				// byte over the longest call.
				m.ObserveRemote(protocol.ObserveRequest{Name: "trickle", Bytes: 1, Nanos: 1 << 62})
			},
			reqs: []ninf.SchedRequest{computeReq, commReq, plainReq, computeReq},
		},
		{
			name: "draining-open-breaker",
			cfg:  Config{FailThreshold: 2, BreakerCooldown: time.Hour},
			servers: []goldenServer{
				{name: "draining", power: 100, st: protocol.Stats{PEs: 4, Draining: true}},
				{name: "open", power: 100, st: idle},
				{name: "streak", power: 100, st: loaded(1, 0, 0)},
				{name: "ok", power: 100, st: loaded(1, 0, 0)},
				{name: "unpolled", power: 100, dead: true},
			},
			prep: func(m *Metaserver) {
				observeFail(m, "open", 2)
				observeFail(m, "streak", 1)
			},
			reqs: []ninf.SchedRequest{plainReq, plainReq, computeReq, {Routine: "busy", Affinity: "draining"}, {Routine: "busy", Exclude: []string{"streak", "ok", "unpolled"}}},
		},
		{
			name: "half-open",
			cfg:  Config{FailThreshold: 1, BreakerCooldown: time.Millisecond},
			servers: []goldenServer{
				{name: "a", power: 100, st: idle},
				{name: "b", power: 100, st: loaded(2, 0, 0)},
			},
			prep: func(m *Metaserver) {
				observeFail(m, "a", 1)
				time.Sleep(5 * time.Millisecond)
			},
			reqs: []ninf.SchedRequest{plainReq, plainReq, plainReq, {Routine: "busy", Exclude: []string{"b"}}},
		},
	}
}

func renderReq(r ninf.SchedRequest) string {
	s := fmt.Sprintf("%s in=%d out=%d ops=%d", r.Routine, r.InBytes, r.OutBytes, r.Ops)
	if len(r.Exclude) > 0 {
		s += " exclude=" + strings.Join(r.Exclude, ",")
	}
	if r.Affinity != "" {
		s += " affinity=" + r.Affinity
	}
	return s
}

func renderPlacement(pl ninf.Placement, err error) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case pl.Degraded:
		return pl.Name + " (degraded)"
	}
	return pl.Name
}

func TestPlacementGolden(t *testing.T) {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, policy := range []string{"load-only", "bandwidth-aware", "round-robin"} {
		for _, sc := range goldenScenarios() {
			add("== %s / %s ==", policy, sc.name)
			m := New(withPolicy(t, sc.cfg, policy))
			for _, s := range sc.servers {
				dial := deadServer
				if !s.dead {
					var trace []protocol.RoutineTrace
					for r, d := range s.trace {
						trace = append(trace, protocol.RoutineTrace{Name: r, Count: 1, MeanCompute: d})
					}
					dial = fakeServer(s.st, trace)
				}
				if err := m.AddServer(s.name, s.name+":7000", s.power, dial); err != nil {
					t.Fatal(err)
				}
			}
			add("poll: %d answered", m.PollOnce())
			if sc.prep != nil {
				sc.prep(m)
			}
			for _, r := range sc.reqs {
				pl, err := m.Place(r)
				add("%s -> %s", renderReq(r), renderPlacement(pl, err))
			}
			for _, s := range m.Servers() {
				add("  %s alive=%v breaker=%v fails=%d overloaded=%v queued=%d obs=%d",
					s.Name, s.Alive, s.Breaker, s.Fails, s.Overloaded, s.Stats.Queued, s.ObsCount)
			}
		}
	}
	out = append(out, degradedGolden(t)...)

	got := strings.Join(out, "\n") + "\n"
	path := filepath.Join("testdata", "placement.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("placements differ from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// degradedGolden warms a RemoteScheduler's cache through a live daemon,
// takes the daemon away and records the placements the cache serves.
func degradedGolden(t *testing.T) []string {
	m := New(Config{})
	for _, n := range []string{"c", "a", "b"} {
		if err := m.AddServer(n, n+":7000", 100, fakeServer(protocol.Stats{PEs: 4}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	up := true
	rs := &RemoteScheduler{Origin: "golden"}
	rs.AddMeta("meta", func() (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if !up {
			return nil, errors.New("refused")
		}
		return peerDial(m)()
	})
	t.Cleanup(func() { rs.Close() })

	out := []string{"== degraded =="}
	place := func(r ninf.SchedRequest) {
		pl, err := rs.Place(r)
		out = append(out, fmt.Sprintf("%s -> %s", renderReq(r), renderPlacement(pl, err)))
	}
	for i := 0; i < 3; i++ {
		place(plainReq)
	}
	mu.Lock()
	up = false
	mu.Unlock()
	rs.Close()
	for _, r := range []ninf.SchedRequest{
		plainReq, plainReq, plainReq, plainReq,
		{Routine: "busy", Exclude: []string{"a"}},
		{Routine: "busy", Exclude: []string{"a"}},
		{Routine: "busy", Exclude: []string{"a", "b", "c"}},
		commReq,
	} {
		place(r)
	}
	out = append(out, fmt.Sprintf("degraded placements: %d", rs.Status().DegradedPlacements))
	// The cache honours a call's data affinity, as the metaserver does,
	// unless the affinity server is excluded.
	for _, r := range []ninf.SchedRequest{
		{Routine: "busy", Affinity: "c"},
		{Routine: "busy", Affinity: "c"},
		{Routine: "busy", Affinity: "c", Exclude: []string{"c"}},
		{Routine: "busy", Affinity: "nosuch"},
	} {
		place(r)
	}
	out = append(out, fmt.Sprintf("degraded placements: %d", rs.Status().DegradedPlacements))
	return out
}

// BenchmarkPlace measures one Metaserver.Place under the default policy
// over n registered servers, with c callers placing concurrently.
func BenchmarkPlace(b *testing.B) {
	for _, n := range []int{4, 64, 1024} {
		for _, c := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("servers=%d/callers=%d", n, c), func(b *testing.B) {
				m := New(Config{})
				for i := 0; i < n; i++ {
					name := fmt.Sprintf("s%d", i)
					if err := m.AddServer(name, name+":7000", float64(100+i%7), deadServer); err != nil {
						b.Fatal(err)
					}
					observeBW(m, name, int64(1_000_000+1000*(i%13)))
				}
				req := ninf.SchedRequest{Routine: "dmmul", InBytes: 64 << 10, OutBytes: 32 << 10, Ops: 1 << 24}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < c; w++ {
					iters := b.N / c
					if w < b.N%c {
						iters++
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							if _, err := m.Place(req); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
