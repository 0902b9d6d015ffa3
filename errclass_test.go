package ninf_test

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"

	"ninf"
	"ninf/internal/metaserver"
	"ninf/internal/server"
)

// readTimeout is a timeout net.Error, as a read past its deadline
// returns.
type readTimeout struct{}

func (readTimeout) Error() string   { return "injected i/o timeout" }
func (readTimeout) Timeout() bool   { return true }
func (readTimeout) Temporary() bool { return true }

// faultClasses are the transport faults a client meets, each as the
// error a connection read returns.
var faultClasses = []error{
	io.ErrUnexpectedEOF,
	syscall.ECONNRESET,
	net.ErrClosed,
	readTimeout{},
	context.DeadlineExceeded,
}

// injectOnCall places on one server and injects the fault when the
// transaction places the call itself — after the interface fetch, so
// the call's own exchange is the one that fails.
type injectOnCall struct {
	ninf.Scheduler
	inject func()
}

func (s injectOnCall) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	if req.InBytes > 0 {
		s.inject()
	}
	return s.Scheduler.Place(req)
}

// TestErrClassBoundaries: a transport fault keeps its identity through
// every client-facing boundary. Each fault class is injected into the
// live connections under a call, a submit, a fetch, a transaction's
// call and the RemoteScheduler's replicas — with nothing cached, so
// every replica is unreachable, and degraded, with the one cached
// server excluded. The error each boundary returns must still let
// errors.Is find the fault, and Retryable must classify it as it
// classifies the bare fault.
func TestErrClassBoundaries(t *testing.T) {
	const n = 4
	in, out := make([]float64, n), make([]float64, n)
	// warm returns a client whose interface cache and transport are up.
	warm := func(t *testing.T, dial func() (net.Conn, error)) *ninf.Client {
		c := newClient(t, dial)
		c.SetRetryPolicy(ninf.NoRetry)
		if _, err := c.Call("echo", n, in, out); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// remote returns a RemoteScheduler whose two replicas, both the
	// daemon of a metaserver that knows the server behind live, are
	// reached through tamper.
	remote := func(t *testing.T, live func() (net.Conn, error), tamper *readTamper) *metaserver.RemoteScheduler {
		m := metaserver.New(metaserver.Config{})
		if err := m.AddServer("s", "s:1", 100, live); err != nil {
			t.Fatal(err)
		}
		d := startHADaemon(t, m)
		rs := &metaserver.RemoteScheduler{}
		t.Cleanup(func() { rs.Close() })
		for _, replica := range []string{"a", "b"} {
			rs.AddMeta(replica, tamper.dialer(func() (net.Conn, error) { return net.Dial("tcp", d.addr) }))
		}
		return rs
	}
	boundaries := []struct {
		name string
		// run drives the boundary against the server behind live, its
		// connections read through tamper, and calls inject when the
		// fault is to strike.
		run func(t *testing.T, live func() (net.Conn, error), tamper *readTamper, inject func()) error
	}{
		{"CallContext", func(t *testing.T, live func() (net.Conn, error), tamper *readTamper, inject func()) error {
			c := warm(t, tamper.dialer(live))
			inject()
			_, err := c.CallContext(context.Background(), "echo", n, in, out)
			return err
		}},
		{"SubmitContext", func(t *testing.T, live func() (net.Conn, error), tamper *readTamper, inject func()) error {
			c := warm(t, tamper.dialer(live))
			inject()
			_, err := c.SubmitContext(context.Background(), "echo", n, in, out)
			return err
		}},
		{"FetchContext", func(t *testing.T, live func() (net.Conn, error), tamper *readTamper, inject func()) error {
			job := submit(t, warm(t, tamper.dialer(live)), in, out)
			inject()
			_, err := job.FetchContext(context.Background(), true)
			return err
		}},
		{"Transaction.EndContext", func(t *testing.T, live func() (net.Conn, error), tamper *readTamper, inject func()) error {
			tx := ninf.BeginTransaction(injectOnCall{ninf.SingleServer("s", tamper.dialer(live)), inject})
			tx.SetRetryPolicy(ninf.NoRetry)
			tx.SetMaxAttempts(1)
			tx.Call("echo", n, in, out)
			return tx.EndContext(context.Background())
		}},
		{"RemoteScheduler/unreachable", func(t *testing.T, live func() (net.Conn, error), tamper *readTamper, inject func()) error {
			rs := remote(t, live, tamper)
			inject()
			_, err := rs.Place(ninf.SchedRequest{Routine: "echo"})
			return err
		}},
		{"RemoteScheduler/degraded", func(t *testing.T, live func() (net.Conn, error), tamper *readTamper, inject func()) error {
			rs := remote(t, live, tamper)
			pl, err := rs.Place(ninf.SchedRequest{Routine: "echo"})
			if err != nil {
				t.Fatal(err)
			}
			inject()
			_, err = rs.Place(ninf.SchedRequest{Routine: "echo", Exclude: []string{pl.Name}})
			return err
		}},
	}
	for _, b := range boundaries {
		for _, class := range faultClasses {
			t.Run(b.name+"/"+class.Error(), func(t *testing.T) {
				_, live := startServer(t, server.Config{})
				tamper := new(readTamper)
				err := b.run(t, live, tamper, func() { tamper.fault.Store(&class) })
				if !errors.Is(err, class) {
					t.Errorf("err = %v: errors.Is does not find the %v underneath", err, class)
				}
				if got, want := ninf.Retryable(err), ninf.Retryable(class); got != want {
					t.Errorf("Retryable(%v) = %t, the bare fault classifies %t", err, got, want)
				}
			})
		}
	}
}
