package ninf_test

// A client whose exchanges overlap holds several multiplexed sessions
// (session.go). These tests pin what is new about that: a handshake
// never holds up callers a live session can serve, a failing session
// fails only its own exchanges, whatever takes the client off one
// session takes it off all, and what the client knows of the server
// (warm digests, epoch) is shared by every session. PinSessions(2)
// makes each independent of the core count it runs on.

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/protocol"
	"ninf/internal/server"
	"ninf/internal/server/journal"
)

// tracked keeps every connection a dialer made, in dial order.
type tracked struct {
	mu    sync.Mutex
	conns []*faultConn
}

func (d *tracked) wrap(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		fc := &faultConn{Conn: conn, failWrites: new(atomic.Bool)}
		d.mu.Lock()
		d.conns = append(d.conns, fc)
		d.mu.Unlock()
		return fc, nil
	}
}

// open counts the connections not yet closed by the client.
func (d *tracked) open() (n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, fc := range d.conns {
		if !fc.closed.Load() {
			n++
		}
	}
	return n
}

func smallEcho(c *ninf.Client) error {
	in, out := []float64{1, 2}, make([]float64, 2)
	_, err := c.Call("echo", 2, in, out)
	return err
}

// spread pins c to n sessions and overlaps calls until it holds them.
func spread(t *testing.T, c *ninf.Client, n int, call func(*ninf.Client) error) {
	t.Helper()
	c.PinSessions(n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for i := 0; i < 2*n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := call(c); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	waitUntil(t, 5*time.Second, func() bool { return c.Sessions() == n })
}

// within fails the test if fn has not returned after d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestSessionsHandshakeOffTheStateMutex: the dial of a second session
// hangs. Nothing that a live session can serve waits for it — calls,
// Multiplexed, Close, SetMultiplexing — and a handshake that finishes
// after the client was taken off its sessions is retired, not installed.
// (With the handshake under the state mutex every one of them blocked
// for the dial plus a round trip.)
func TestSessionsHandshakeOffTheStateMutex(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  func(*ninf.Client)
	}{
		{"close", func(c *ninf.Client) { c.Close() }},
		{"mux-off", func(c *ninf.Client) { c.SetMultiplexing(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dial := startServer(t, server.Config{PEs: 4})
			var conns tracked
			var dials atomic.Int32
			reached, gate := make(chan struct{}), make(chan struct{})
			inner := conns.wrap(dial)
			c := newClient(t, func() (net.Conn, error) {
				if dials.Add(1) == 2 {
					close(reached)
					<-gate
				}
				return inner()
			})
			c.PinSessions(2)
			if err := smallEcho(c); err != nil {
				t.Fatal(err)
			}

			// Overlapping calls ask for the second session; its dial hangs.
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-reached:
							return
						default:
						}
						if err := smallEcho(c); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			select {
			case <-reached:
			case <-time.After(5 * time.Second):
				t.Fatal("overlapping calls never dialed for a second session")
			}
			wg.Wait()

			within(t, 5*time.Second, "calls on the live session behind a hung dial", func() {
				for i := 0; i < 50; i++ {
					if err := smallEcho(c); err != nil {
						t.Error(err)
						return
					}
				}
				if !c.Multiplexed() {
					t.Error("Multiplexed() = false with a live session")
				}
			})
			within(t, 5*time.Second, tc.name+" behind a hung dial", func() { tc.off(c) })
			if n := c.Sessions(); n != 0 {
				t.Fatalf("%d live sessions after %s", n, tc.name)
			}

			// The dial completes late. Whatever it negotiates is closed.
			close(gate)
			waitUntil(t, 5*time.Second, func() bool { return conns.open() == 0 })
			if c.Multiplexed() {
				t.Fatalf("a handshake that outlived %s installed its session", tc.name)
			}
		})
	}
}

// TestSessionsFailureIsolation: one busy call in flight on each of two
// sessions, and the server end of one session's socket is closed. Only
// that session's call is retried; the other completes on its first
// attempt, and the next overlap heals the set back to two.
func TestSessionsFailureIsolation(t *testing.T) {
	l, _, _, dial, _ := startPoolServerCfg(t, server.Config{PEs: 4})
	// Polling through c would put an exchange of its own on the idle
	// session just as a call chooses. The probe dials first: the server
	// accepts its connection, then c's two.
	probe := newClient(t, dial)
	c := newClient(t, dial)
	spread(t, c, 2, smallEcho)
	if _, err := c.Call("busy", 0); err != nil { // the interface fetch is an attempt too
		t.Fatal(err)
	}

	running := func(n int64) func() bool {
		return func() bool {
			st, err := probe.Stats()
			return err == nil && st.Running == n
		}
	}
	before := c.Attempts()
	errs := make(chan error, 2)
	busy := func() {
		_, err := c.Call("busy", 400)
		errs <- err
	}
	// The second call starts with the first in flight, so the least
	// loaded session is the other one.
	go busy()
	waitUntil(t, 5*time.Second, running(1))
	go busy()
	waitUntil(t, 5*time.Second, running(2))

	l.closeOne(2) // c's second connection: its second session's
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Attempts() - before; got != 3 {
		t.Errorf("%d attempts for two calls with one session severed, want 3: the severed session's call retried, the other's not", got)
	}
	// The retry found the surviving session busy and asked for another.
	waitUntil(t, 5*time.Second, func() bool { return c.Sessions() == 2 })
}

// TestSessionsRetireAll: Close, SetMultiplexing(false) and a registered
// callback each take the client off every session it holds, not one.
func TestSessionsRetireAll(t *testing.T) {
	for _, tc := range []struct {
		name   string
		off    func(*ninf.Client)
		usable bool
	}{
		{"close", func(c *ninf.Client) { c.Close() }, false},
		{"mux-off", func(c *ninf.Client) { c.SetMultiplexing(false) }, true},
		{"callback", func(c *ninf.Client) {
			c.RegisterCallback("progress", func([]byte) ([]byte, error) { return nil, nil })
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dial := startServer(t, server.Config{PEs: 4})
			var conns tracked
			c := newClient(t, conns.wrap(dial))
			spread(t, c, 2, smallEcho)
			if n := conns.open(); n != 2 {
				t.Fatalf("%d open connections under two sessions, want 2", n)
			}
			tc.off(c)
			if n, o := c.Sessions(), conns.open(); n != 0 || o != 0 || c.Multiplexed() {
				t.Fatalf("after %s: %d sessions, %d open connections, Multiplexed() = %v", tc.name, n, o, c.Multiplexed())
			}
			if !tc.usable {
				return
			}
			callOnce(t, c)
			if c.Multiplexed() {
				t.Fatalf("a call after %s re-established a session", tc.name)
			}
		})
	}
}

// TestSessionsLegacyAnswer: the handshake for a second session is
// answered as a version-1 server answers. That takes the client off the
// session it has, as it keeps it off any when it is the first answer.
func TestSessionsLegacyAnswer(t *testing.T) {
	_, dialMux := startServer(t, server.Config{PEs: 4})
	_, dialLegacy := startServer(t, server.Config{PEs: 4, DisableMux: true})
	var dials atomic.Int32
	c := newClient(t, func() (net.Conn, error) {
		if dials.Add(1) == 1 {
			return dialMux()
		}
		return dialLegacy()
	})
	c.PinSessions(2)
	callOnce(t, c)
	if !c.Multiplexed() {
		t.Fatal("no session against the mux server")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.Multiplexed() {
				if err := smallEcho(c); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	within(t, 10*time.Second, "overlapping calls across a legacy answer", wg.Wait)
	if n := c.Sessions(); n != 0 {
		t.Fatalf("%d live sessions after a legacy answer", n)
	}
	callOnce(t, c)
	if c.Multiplexed() {
		t.Fatal("legacy pin did not stick")
	}
}

// TestSessionsShareWarmDigests: the server's argument cache is per
// server, so what one session uploaded another may name. A vector goes
// up on one session; calls on the other send its 20-byte marker without
// asking first.
func TestSessionsShareWarmDigests(t *testing.T) {
	s, dial, _ := startCountingServer(t, server.Config{PEs: 4, BulkThreshold: 4096, CacheBudget: 1 << 20})
	var mu sync.Mutex
	var logs []*wireLog
	c := newClient(t, func() (net.Conn, error) {
		log := &wireLog{}
		mu.Lock()
		logs = append(logs, log)
		mu.Unlock()
		return recorded(dial, log)()
	})
	c.SetBulkThreshold(4096)
	spread(t, c, 2, func(c *ninf.Client) error {
		_, err := c.Call("cdouble", 1, []float64{1}, make([]float64, 1))
		return err
	})

	v, w := bulkVec(cacheTestN), make([]float64, cacheTestN)
	if _, err := c.Call("cdouble", cacheTestN, v, w); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	var other *wireLog // the session the upload did not ride
	for _, log := range logs {
		if asked, _ := log.sent(protocol.MsgCallDigest); asked == 0 {
			other = log
		}
	}
	if len(logs) != 2 || other == nil {
		t.Fatalf("%d connections, want 2 with the upload's warmth query on exactly one", len(logs))
	}
	calls, _ := other.sent(protocol.MsgCall)
	for i := 0; ; i++ {
		clear(w)
		rep, err := c.Call("cdouble", cacheTestN, v, w)
		if err != nil {
			t.Fatal(err)
		}
		checkDoubled(t, v, w)
		if rep.BytesOut > 1024 {
			t.Fatalf("warm call shipped %d bytes, want a digest marker", rep.BytesOut)
		}
		if n, _ := other.sent(protocol.MsgCall); n > calls {
			break
		}
		if i == 8 {
			t.Fatal("eight sequential calls over two idle sessions all rode one: ties do not rotate")
		}
	}
	asked, _ := other.sent(protocol.MsgCallDigest)
	_, streamed := other.sent(protocol.MsgBulkChunk)
	if asked != 0 || streamed != 0 {
		t.Fatalf("the session that did not upload sent %d CallDigest frames and %d bytes of chunks, want neither", asked, streamed)
	}
	if hits, _, _, _, _ := s.CacheCounters(); hits < 1 {
		t.Fatal("no marker resolved from the cache")
	}
}

// TestSessionsLoneCallerHoldsOne: a cold upload has two exchanges in
// flight — the stream and the warmth query beside it — but both belong
// to one call. A client that issues calls one after another (the shape
// of benchmark/'s wan_cache and submit_journal clients) never finds its
// session busy when it chooses, and holds one socket at any core count.
func TestSessionsLoneCallerHoldsOne(t *testing.T) {
	_, dial, _ := startCountingServer(t, server.Config{PEs: 4, BulkThreshold: 4096, CacheBudget: 1 << 20})
	var dials atomic.Int32
	log := &wireLog{}
	c := newClient(t, recorded(func() (net.Conn, error) {
		dials.Add(1)
		return dial()
	}, log))
	c.SetBulkThreshold(4096)
	const rounds = 20
	v, w := bulkVec(cacheTestN), make([]float64, cacheTestN)
	for i := 0; i < rounds; i++ {
		v[0] = float64(i) // a vector the server has not seen: asked about beside its upload
		for k := 0; k < 3; k++ {
			if _, err := c.Call("cdouble", cacheTestN, v, w); err != nil {
				t.Fatal(err)
			}
		}
		job, err := c.Submit("cdouble", cacheTestN, v, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Fetch(true); err != nil {
			t.Fatal(err)
		}
		checkDoubled(t, v, w)
	}
	if asked, _ := log.sent(protocol.MsgCallDigest); asked != rounds {
		t.Fatalf("vacuous: %d warmth queries, want one per cold upload (%d)", asked, rounds)
	}
	if d, n := dials.Load(), c.Sessions(); d != 1 || n != 1 {
		t.Errorf("%d dials and %d sessions for calls that never overlap, want 1 and 1", d, n)
	}
}

// TestSessionsEpochChangeDropsWarmSetOnce: the server restarts with an
// empty cache. The first session re-dialed meets the new epoch and the
// warm set is dropped; the second meets the same epoch and must not
// drop what was uploaded in between.
func TestSessionsEpochChangeDropsWarmSetOnce(t *testing.T) {
	const nv = 16 << 10
	dir := t.TempDir()
	var execs tagCounter
	var addr atomic.Value
	start := func(name string) *server.Server {
		s := server.New(server.Config{Hostname: name, PEs: 4, BulkThreshold: 4096, CacheBudget: 4 << 20}, restartRegistry(t, &execs))
		if _, err := s.AttachJournal(dir, journal.Options{Fsync: journal.FsyncAlways}); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l)
		t.Cleanup(func() { s.Close() })
		addr.Store(l.Addr().String())
		return s
	}
	s1 := start("epoch1")
	c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) })
	c.SetBulkThreshold(4096)
	c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond})
	tiny := func(c *ninf.Client) error {
		_, err := c.Call("rdouble", 1, []float64{1}, make([]float64, 1))
		return err
	}
	v, w := bulkVec(nv), make([]float64, nv)
	v[0] = 1
	call := func() int64 {
		t.Helper()
		rep, err := c.Call("rdouble", nv, v, w)
		if err != nil {
			t.Fatal(err)
		}
		return rep.BytesOut
	}

	spread(t, c, 2, tiny)
	cold := call()
	if warm := call(); warm*4 > cold || c.ServerEpoch() != 1 {
		t.Fatalf("vacuous: cold %d bytes, warm %d, epoch %d", cold, warm, c.ServerEpoch())
	}

	s1.Close()
	start("epoch2")
	if again := call(); again*4 < cold || c.ServerEpoch() != 2 {
		t.Fatalf("first call after the restart shipped %d bytes (cold %d) at epoch %d: the warm set survived", again, cold, c.ServerEpoch())
	}
	spread(t, c, 2, tiny) // the second session's hello carries epoch 2 again
	if warm := call(); warm*4 > cold {
		t.Fatalf("call after the second handshake shipped %d bytes (cold %d): the same epoch dropped the warm set twice", warm, cold)
	}
}

// TestSessionsControlVerbsNeverDial: every live session is busy and the
// client may hold more. A control or interface verb rides the least
// loaded one; it neither dials for a session nor falls to a lockstep
// connection (the pool is empty, so that would dial too).
func TestSessionsControlVerbsNeverDial(t *testing.T) {
	_, dials, _, dial, _ := startPoolServerCfg(t, server.Config{PEs: 4})
	c := newClient(t, dial)
	c.PinSessions(2)
	callOnce(t, c)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("busy", 300)
		done <- err
	}()
	waitUntil(t, 5*time.Second, func() bool {
		st, err := c.Stats()
		return err == nil && st.Running == 1
	})
	for i := 0; i < 20; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.List(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Trace(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Interface("linsolve"); err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials, want 1: a control verb opened a connection", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSessionsPickCostsNothing: choosing among the sessions a client
// holds allocates nothing and starts no goroutine.
func TestSessionsPickCostsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, dial := startServer(t, server.Config{PEs: 4})
	c := newClient(t, dial)
	spread(t, c, 2, smallEcho)
	ctx := context.Background()
	goroutines := runtime.NumGoroutine()
	allocs := testing.AllocsPerRun(1000, func() {
		if ok, err := c.PickSession(ctx); !ok || err != nil {
			t.Fatalf("no session picked: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per session choice, want 0", allocs)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after 1000 session choices, %d before", n, goroutines)
	}
}
