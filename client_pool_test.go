package ninf_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/library"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// faultConn wraps a connection with injectable faults and a close flag,
// so tests can break a pooled connection on demand: failing writes, or
// the reply to the next request replaced by canned bytes.
type faultConn struct {
	net.Conn
	failWrites *atomic.Bool
	closed     atomic.Bool

	// answer, once stored, replaces the reply to the next request
	// written: reads return its bytes and then io.EOF.
	answer atomic.Pointer[[]byte]
	canned []byte
	cut    bool
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.failWrites.Load() {
		return 0, errors.New("injected write failure")
	}
	if a := c.answer.Swap(nil); a != nil {
		c.canned, c.cut = *a, true
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	if !c.cut {
		return c.Conn.Read(p)
	}
	if len(c.canned) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.canned)
	c.canned = c.canned[n:]
	return n, nil
}

func (c *faultConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// recListener records the server side of each accepted connection so
// tests can kill connections from the far end.
type recListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *recListener) closeAccepted() {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// closeOne closes the server end of the i-th connection accepted.
func (l *recListener) closeOne(i int) {
	l.mu.Lock()
	c := l.conns[i]
	l.mu.Unlock()
	c.Close()
}

func (l *recListener) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// startPoolServer launches a server on a recording listener and
// returns a counting, fault-injecting dialer.
func startPoolServer(t *testing.T) (*recListener, *atomic.Int64, *atomic.Bool, func() (net.Conn, error), func() *faultConn) {
	t.Helper()
	return startPoolServerCfg(t, server.Config{})
}

func startPoolServerCfg(t *testing.T, cfg server.Config) (*recListener, *atomic.Int64, *atomic.Bool, func() (net.Conn, error), func() *faultConn) {
	t.Helper()
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg, reg)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &recListener{Listener: inner}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })

	dials := new(atomic.Int64)
	failWrites := new(atomic.Bool)
	var mu sync.Mutex
	var last *faultConn
	dial := func() (net.Conn, error) {
		dials.Add(1)
		c, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			return nil, err
		}
		fc := &faultConn{Conn: c, failWrites: failWrites}
		mu.Lock()
		last = fc
		mu.Unlock()
		return fc, nil
	}
	lastConn := func() *faultConn {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
	return l, dials, failWrites, dial, lastConn
}

func asyncPing(t *testing.T, c *ninf.Client) {
	t.Helper()
	n := 4
	in := make([]float64, n)
	out := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	if _, err := c.CallAsync("echo", n, in, out).Wait(); err != nil {
		t.Fatal(err)
	}
	if out[n-1] != in[n-1] {
		t.Fatalf("echo out = %v", out)
	}
}

// newPoolClient builds a client pinned to the lockstep paths. These
// tests assert the pool's dial accounting — checkout, reuse, health
// check, surplus trimming — which the multiplexed session (one shared
// connection carrying every verb) deliberately bypasses.
func newPoolClient(t *testing.T, dial func() (net.Conn, error)) *ninf.Client {
	t.Helper()
	c := newClient(t, dial)
	c.SetMultiplexing(false)
	return c
}

func TestAsyncDialsBoundedByPool(t *testing.T) {
	// N >> poolSize sequential async calls must ride the idle pool:
	// the dialer fires at most poolSize times, the connection NewClient
	// seeded the pool with included.
	_, dials, _, dial, _ := startPoolServer(t)
	c := newPoolClient(t, dial)
	const poolSize = 2
	c.SetPoolSize(poolSize)

	const calls = 16
	for i := 0; i < calls; i++ {
		asyncPing(t, c)
	}
	if got := dials.Load(); got > poolSize {
		t.Errorf("%d sequential async calls used %d dials, want <= %d", calls, got, poolSize)
	}
	// Sequential calls never hold more than one connection at a time,
	// so in practice the seed connection carries them all.
	if got := dials.Load(); got != 1 {
		t.Errorf("dials = %d, want 1 (the pool's seed connection, reused)", got)
	}
}

func TestSubmitFetchReusePool(t *testing.T) {
	_, dials, _, dial, _ := startPoolServer(t)
	c := newPoolClient(t, dial)

	for i := 0; i < 5; i++ {
		n := 3
		in := []float64{1, 2, 3}
		out := make([]float64, n)
		job, err := c.Submit("echo", n, in, out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Fetch(true); err != nil {
			t.Fatal(err)
		}
		if out[2] != 3 {
			t.Fatalf("out = %v", out)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("5 submit+fetch pairs used %d dials, want 1", got)
	}
}

// TestPoolDiscardsConnOnWriteError pins which outcomes of a lockstep
// exchange return its connection to the pool (Class.Answered): a failed
// write, a reply cut short and a reply with a bad magic word leave the
// stream out of frame sync, so the connection is closed and the next
// call dials; a decoded MsgError leaves it in sync, so it is kept.
func TestPoolDiscardsConnOnWriteError(t *testing.T) {
	var frame bytes.Buffer
	if err := protocol.WriteFrame(&frame, protocol.MsgCallOK, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	truncated := frame.Bytes()[:frame.Len()-54]
	badMagic := bytes.Clone(frame.Bytes())
	badMagic[0] ^= 0xff
	for _, tc := range []struct {
		name      string
		failWrite bool   // the request's write fails
		answer    []byte // replaces the reply
		routine   string
		kept      bool
	}{
		{name: "write-error", failWrite: true, routine: "echo"},
		{name: "truncated-reply", answer: truncated, routine: "echo"},
		{name: "bad-magic", answer: badMagic, routine: "echo"},
		{name: "remote-error", routine: "nosuchroutine", kept: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dials, failWrites, dial, lastConn := startPoolServer(t)
			c := newPoolClient(t, dial)
			c.SetRetryPolicy(ninf.NoRetry)

			asyncPing(t, c) // warm the interface cache; the one connection goes back to the pool
			pooled := lastConn()
			if pooled == nil || dials.Load() != 1 {
				t.Fatalf("expected one pooled connection after warmup, dials = %d", dials.Load())
			}

			failWrites.Store(tc.failWrite)
			if tc.answer != nil {
				pooled.answer.Store(&tc.answer)
			}
			_, err := c.CallAsync(tc.routine, 1, []float64{1}, make([]float64, 1)).Wait()
			failWrites.Store(false)
			var re *protocol.RemoteError
			if err == nil || errors.As(err, &re) != tc.kept {
				t.Fatalf("call error = %v, want a remote error: %v", err, tc.kept)
			}
			if pooled.closed.Load() == tc.kept {
				t.Errorf("connection closed = %v, want %v", tc.kept, !tc.kept)
			}
			// A discarded connection is not reused: the next call dials.
			asyncPing(t, c)
			want := int64(2)
			if tc.kept {
				want = 1
			}
			if got := dials.Load(); got != want {
				t.Errorf("dials = %d, want %d", got, want)
			}
		})
	}
}

func TestPoolHealthCheckOnCheckout(t *testing.T) {
	l, dials, _, dial, _ := startPoolServer(t)
	c := newPoolClient(t, dial)

	asyncPing(t, c)
	if dials.Load() != 1 {
		t.Fatalf("dials after warmup = %d, want 1", dials.Load())
	}

	// Kill every connection from the server side; the idle connection
	// is now dead but the client cannot know until it looks.
	l.closeAccepted()
	time.Sleep(50 * time.Millisecond) // let the FIN reach the client

	// Checkout must detect the dead connection and dial a fresh one —
	// the call succeeds rather than erroring on a stale stream.
	asyncPing(t, c)
	if got := dials.Load(); got != 2 {
		t.Errorf("dials = %d, want 2 (health check replaced dead conn)", got)
	}
}

func TestSetPoolSizeClosesSurplus(t *testing.T) {
	_, dials, _, dial, _ := startPoolServer(t)
	c := newPoolClient(t, dial)

	// Hold several connections concurrently so more than one lands in
	// the pool on completion.
	var calls []*ninf.AsyncCall
	for i := 0; i < 4; i++ {
		calls = append(calls, c.CallAsync("echo", 2, []float64{1, 2}, make([]float64, 2)))
	}
	for _, a := range calls {
		if _, err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	base := dials.Load()

	c.SetPoolSize(0) // closes everything idle
	asyncPing(t, c)  // must dial: the pool retains nothing
	if got := dials.Load(); got != base+1 {
		t.Errorf("dials = %d, want %d after shrinking pool to zero", got, base+1)
	}
}

// TestOneSocketPerServer pins the client's connection topology: sockets
// ≤ min(GOMAXPROCS, peak exchanges in flight). The connection NewClient
// dials carries the first interface fetch, then the Hello, and —
// upgraded — the first session, and a client whose exchanges never
// overlap never needs another: it costs the server one socket and one
// serving goroutine whatever the core count. Overlapping callers get at
// most one session per P, so exactly one at -cpu 1, and when they all
// arrive cold they wait for the one handshake (and share one interface
// fetch) instead of each falling to a lockstep connection of its own.
// Against a server that refuses the upgrade, the refused Hello was a
// complete lockstep exchange and the same connection goes on to carry
// the call.
func TestOneSocketPerServer(t *testing.T) {
	echo := smallEcho
	twoPhase := func(c *ninf.Client) error {
		in, out := []float64{1, 2}, make([]float64, 2)
		job, err := c.Submit("echo", 2, in, out)
		if err != nil {
			return err
		}
		_, err = job.Fetch(true)
		return err
	}
	for _, tc := range []struct {
		name    string
		cfg     server.Config
		callers int // concurrent, each running every step
		warm    bool
		steps   []func(*ninf.Client) error
		repeat  int
		most    int // sockets allowed
		mux     bool
	}{
		{"mux", server.Config{}, 1, false, []func(*ninf.Client) error{echo, twoPhase}, 100, 1, true},
		{"mux-overlapping", server.Config{PEs: 4}, 16, true, []func(*ninf.Client) error{echo}, 20, runtime.GOMAXPROCS(0), true},
		{"mux-concurrent-cold-start", server.Config{PEs: 4}, 16, false, []func(*ninf.Client) error{echo}, 1, runtime.GOMAXPROCS(0), true},
		{"legacy-server", server.Config{DisableMux: true}, 1, false, []func(*ninf.Client) error{echo}, 1, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, dials, _, dial, _ := startPoolServerCfg(t, tc.cfg)
			c := newClient(t, dial)
			if tc.warm {
				if err := echo(c); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, tc.callers)
			for i := 0; i < tc.callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < tc.repeat; k++ {
						for _, step := range tc.steps {
							if err := step(c); err != nil {
								errs <- err
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if c.Multiplexed() != tc.mux {
				t.Fatalf("Multiplexed() = %v, want %v", c.Multiplexed(), tc.mux)
			}
			if tc.mux {
				// Every connection dialed is (or, its handshake still
				// running behind the callers, is about to be) a session:
				// none was a call's own lockstep connection.
				waitUntil(t, 5*time.Second, func() bool { return int64(c.Sessions()) == dials.Load() })
			}
			if d, a := dials.Load(), l.accepted(); d < 1 || d > int64(tc.most) || int(d) != a {
				t.Errorf("client dialed %d connections and the server accepted %d, want the same and 1..%d", d, a, tc.most)
			}
		})
	}
}
