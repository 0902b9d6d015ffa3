package ninf_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/idl"
	"ninf/internal/metaserver"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// stallBound is how long an operation that must not wait for a stalled
// peer may take. It is generous on purpose: only an operation blocked
// behind the stall comes near it.
const stallBound = 2 * time.Second

const gateIDL = `
Define gate(mode_in int n) Calls "go" gate(n);
Define noop(mode_in int n) Calls "go" noop(n);
Define ask(mode_in int n) Calls "go" ask(n);
`

// gateServer serves, on loopback TCP, "gate" (it reports on entered and
// blocks until open is closed), "noop" and "ask" (one round trip to the
// client's "ask" callback).
func gateServer(t *testing.T, cfg server.Config) (s *server.Server, addr string, entered, open chan struct{}) {
	t.Helper()
	entered, open = make(chan struct{}, 1), make(chan struct{})
	reg := server.NewRegistry()
	err := reg.RegisterIDL(gateIDL, map[string]server.Handler{
		"gate": func(ctx context.Context, _ []idl.Value) error {
			entered <- struct{}{}
			select {
			case <-open:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		"noop": func(context.Context, []idl.Value) error { return nil },
		"ask": func(ctx context.Context, _ []idl.Value) error {
			_, err := server.Callback(ctx, "ask", nil)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s = server.New(cfg, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String(), entered, open
}

// stallDialer dials addr until stalled is set. From then on a dial
// reports on dialing and hangs until release is closed, then fails.
type stallDialer struct {
	addr    string
	stalled atomic.Bool
	dialing chan struct{}
	release chan struct{}
}

func newStallDialer(addr string) *stallDialer {
	return &stallDialer{addr: addr, dialing: make(chan struct{}, 1), release: make(chan struct{})}
}

func (d *stallDialer) dial() (net.Conn, error) {
	if !d.stalled.Load() {
		return net.Dial("tcp", d.addr)
	}
	select {
	case d.dialing <- struct{}{}:
	default:
	}
	<-d.release
	return nil, errors.New("stalled dial released")
}

// await runs op on its own goroutine and fails t unless op returns,
// without error, within stallBound. The returned wait joins op's
// goroutine; call it once the stall is released.
func await(t *testing.T, what string, op func() error) (wait func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
		return func() {}
	case <-time.After(stallBound):
		t.Errorf("%s did not return within %v beside a stalled peer", what, stallBound)
		return func() { <-done }
	}
}

// started runs op on its own goroutine and returns a wait for its error.
func started(op func() error) (wait func() error) {
	done := make(chan error, 1)
	go func() { done <- op() }()
	return func() error { return <-done }
}

// call returns an op that calls name(0) on c.
func call(c *ninf.Client, name string) func() error {
	return func() error {
		_, err := c.Call(name, int64(0))
		return err
	}
}

// placeFunc is a Scheduler that places with the function and ignores
// outcomes.
type placeFunc func(ninf.SchedRequest) (ninf.Placement, error)

func (f placeFunc) Place(req ninf.SchedRequest) (ninf.Placement, error) { return f(req) }

func (placeFunc) Observe(string, int64, time.Duration, error) {}

// writeWatch is a connection that reports on writing each time a write
// begins.
type writeWatch struct {
	net.Conn
	writing chan struct{}
}

func (w *writeWatch) Write(p []byte) (int, error) {
	select {
	case w.writing <- struct{}{}:
	default:
	}
	return w.Conn.Write(p)
}

// TestStalledPeerIsolation: one stalled party — a dial that hangs, a
// client that stops reading, a callback that never answers, a server
// that never answers the metaserver's poll — holds up
// only the operation waiting on it, never another caller's call (the
// paper's §6 failure is one slow peer stalling everyone). Each case
// stalls the first party until the test releases it and requires the
// second operation to finish while it still hangs.
func TestStalledPeerIsolation(t *testing.T) {
	// A caller finds the live session busy, so a second one is opened
	// for it off its path; that dial hangs, and the call completes on
	// the live session.
	t.Run("client/mux", func(t *testing.T) {
		_, addr, entered, open := gateServer(t, server.Config{PEs: 2})
		d := newStallDialer(addr)
		c := newClient(t, d.dial)
		c.PinSessions(2)
		if err := call(c, "noop")(); err != nil {
			t.Fatal(err)
		}
		d.stalled.Store(true)
		busy := started(call(c, "gate"))
		<-entered
		wait := await(t, "a call on the live session", call(c, "noop"))
		select {
		case <-d.dialing:
		case <-time.After(stallBound):
			t.Error("no second session was dialed beside a busy one")
		}
		close(open)
		if err := busy(); err != nil {
			t.Error(err)
		}
		close(d.release)
		wait()
	})

	// One caller's pooled connection is out while another's dial for a
	// fresh one hangs: the first completes its call and hands its
	// connection back.
	t.Run("client/lockstep", func(t *testing.T) {
		_, addr, entered, open := gateServer(t, server.Config{PEs: 2})
		d := newStallDialer(addr)
		c := newClient(t, d.dial)
		c.SetMultiplexing(false)
		c.SetRetryPolicy(ninf.NoRetry)
		held := started(call(c, "gate")) // on the connection NewClient pooled
		<-entered
		d.stalled.Store(true)
		dialer := started(call(c, "noop"))
		<-d.dialing
		close(open)
		wait := await(t, "a call on a held connection", held)
		close(d.release)
		if err := dialer(); err == nil {
			t.Error("a call whose only dial failed succeeded")
		}
		wait()
	})

	// A client that sends a call and never reads the reply holds the
	// server's reply write on its connection; another client's call
	// completes.
	t.Run("server", func(t *testing.T) {
		s, addr, _, _ := gateServer(t, server.Config{})
		info, err := idl.ParseOne(`Define noop(mode_in int n) Calls "go" noop(n);`)
		if err != nil {
			t.Fatal(err)
		}
		stalled, peer := net.Pipe()
		w := &writeWatch{Conn: peer, writing: make(chan struct{}, 1)}
		served := make(chan struct{})
		go func() {
			s.ServeConn(w)
			close(served)
		}()
		_, fb, err := protocol.EncodeRequest(info, protocol.MsgCall, &protocol.CallRequest{Name: "noop", Args: []idl.Value{int64(0)}}, 0, protocol.Shape{})
		if err != nil {
			t.Fatal(err)
		}
		err = protocol.WriteFrameBuf(stalled, protocol.MsgCall, fb)
		fb.Release()
		if err != nil {
			t.Fatal(err)
		}
		<-w.writing // the reply write now blocks: nobody reads it
		c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", addr) })
		wait := await(t, "another client's call", call(c, "noop"))
		stalled.Close()
		<-served
		wait()
	})

	// A blocking call's executable waits on a client callback that
	// does not answer; another client's call completes.
	t.Run("callback", func(t *testing.T) {
		_, addr, _, _ := gateServer(t, server.Config{PEs: 2})
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		asked, answer := make(chan struct{}, 1), make(chan struct{})
		hung := newClient(t, dial)
		hung.RegisterCallback("ask", func([]byte) ([]byte, error) {
			asked <- struct{}{}
			<-answer
			return nil, nil
		})
		stuck := started(call(hung, "ask"))
		<-asked
		wait := await(t, "another client's call", call(newClient(t, dial), "noop"))
		close(answer)
		if err := stuck(); err != nil {
			t.Error(err)
		}
		wait()
	})

	// One of a transaction's calls is placed on a server whose dial
	// hangs; the other, placed on a healthy server only once that dial
	// has begun, completes, and the call timeout ends the stalled one.
	t.Run("transaction", func(t *testing.T) {
		_, addr, _, _ := gateServer(t, server.Config{PEs: 2})
		d := newStallDialer(addr)
		d.stalled.Store(true)
		healthy := ninf.Placement{Name: "healthy", Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }}
		var placed atomic.Int32
		tx := ninf.BeginTransaction(placeFunc(func(ninf.SchedRequest) (ninf.Placement, error) {
			switch placed.Add(1) {
			case 1: // the interface fetch
				return healthy, nil
			case 2:
				return ninf.Placement{Name: "stalled", Dial: d.dial}, nil
			}
			select {
			case <-d.dialing:
				return healthy, nil
			case <-time.After(stallBound):
				return ninf.Placement{}, errors.New("the stalled dial never began")
			}
		}))
		tx.SetCallTimeout(200 * time.Millisecond)
		tx.SetMaxAttempts(1)
		tx.Call("noop", int64(0))
		tx.Call("noop", int64(1))
		ended := started(tx.End)
		wait := await(t, "the transaction beside a stalled dial", func() error {
			if err := ended(); !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("End = %v, want the stalled call's deadline", err)
			}
			return nil
		})
		close(d.release)
		wait()
		if errs := tx.Errs(); (errs[0] == nil) == (errs[1] == nil) {
			t.Errorf("call errors %v, want exactly one failed call", errs)
		}
	})

	// A registered server takes the metaserver's poll and never
	// answers; while PollOnce waits on it, placement and registration
	// go on.
	t.Run("metaserver", func(t *testing.T) {
		m := metaserver.New(metaserver.Config{})
		probed := make(chan net.Conn, 1)
		err := m.AddServer("stalled", "stalled:1", 100, func() (net.Conn, error) {
			c, s := net.Pipe()
			go func() {
				// Take the stats request and answer nothing.
				if _, fb, err := protocol.ReadFrameBuf(s, 0); err == nil {
					fb.Release()
				}
				probed <- s
			}()
			return c, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		polled := started(func() error {
			m.PollOnce()
			return nil
		})
		held := <-probed
		placed := await(t, "Place", func() error {
			_, err := m.Place(ninf.SchedRequest{Routine: "noop"})
			return err
		})
		added := await(t, "AddServer", func() error {
			return m.AddServer("fresh", "fresh:1", 100, func() (net.Conn, error) { return nil, net.ErrClosed })
		})
		held.Close()
		polled()
		placed()
		added()
	})
}
