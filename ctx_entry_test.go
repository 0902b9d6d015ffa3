package ninf_test

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/server"
)

// A readTamper takes over the reads of the connections its dialers
// hand out. Once mute is set, what the peer sends is dropped and a read
// returns only with an error of its own (a deadline, a close); once
// fault holds an error, a read returns that error instead. Writes go
// through, so the peer is reachable and acts on requests.
type readTamper struct {
	mute  atomic.Bool
	fault atomic.Pointer[error]
}

// dialer wraps dial's connections so that t rules their reads.
func (t *readTamper) dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &tamperConn{Conn: conn, t: t}, nil
	}
}

type tamperConn struct {
	net.Conn
	t *readTamper
}

func (c *tamperConn) Read(p []byte) (int, error) {
	for {
		if fault := c.t.fault.Load(); fault != nil {
			return 0, *fault
		}
		n, err := c.Conn.Read(p)
		switch {
		case c.t.fault.Load() != nil:
		case !c.t.mute.Load():
			return n, err
		case err != nil:
			return 0, err
		}
	}
}

// TestCtxEntryPoints: every exported entry point that takes a context,
// run against a server that stops answering, returns an error that
// errors.Is finds the context's own error in, within the deadline plus
// a second. Each row first runs on the live server — the interface is
// cached, a session or pooled connection is up, a job or handle exists
// — then falls silent and runs the entry point.
//
// Rows held elsewhere, not repeated here: InterfaceContext
// (TestInterfaceContextDeadlineSeversBlackHole), the mux session's
// Roundtrip and Post/Wait (internal/mux TestSessionCtxAbandonsSeq),
// RoundtripBulk, which is RoundtripRetract with no retract signal
// (TestRoundtripBulkCtxCancel), and server.Drain (internal/server
// TestDrainTimeoutForcesClose).
func TestCtxEntryPoints(t *testing.T) {
	const deadline = 200 * time.Millisecond
	const n = 4
	in, out := make([]float64, n), make([]float64, n)
	rows := []struct {
		name string
		// prep runs on the live server and returns the entry point.
		prep func(t *testing.T, c *ninf.Client, dial func() (net.Conn, error)) func(ctx context.Context) error
	}{
		{"CallContext", func(t *testing.T, c *ninf.Client, _ func() (net.Conn, error)) func(context.Context) error {
			return func(ctx context.Context) error {
				_, err := c.CallContext(ctx, "echo", n, in, out)
				return err
			}
		}},
		{"CallAsyncContext", func(t *testing.T, c *ninf.Client, _ func() (net.Conn, error)) func(context.Context) error {
			return func(ctx context.Context) error {
				_, err := c.CallAsyncContext(ctx, "echo", n, in, out).Wait()
				return err
			}
		}},
		{"SubmitContext", func(t *testing.T, c *ninf.Client, _ func() (net.Conn, error)) func(context.Context) error {
			return func(ctx context.Context) error {
				_, err := c.SubmitContext(ctx, "echo", n, in, out)
				return err
			}
		}},
		{"Job.FetchContext", func(t *testing.T, c *ninf.Client, _ func() (net.Conn, error)) func(context.Context) error {
			job := submit(t, c, in, out)
			return func(ctx context.Context) error {
				_, err := job.FetchContext(ctx, true)
				return err
			}
		}},
		{"Job.Resubmit", func(t *testing.T, c *ninf.Client, _ func() (net.Conn, error)) func(context.Context) error {
			job := submit(t, c, in, out)
			return job.Resubmit
		}},
		{"FetchData", func(t *testing.T, c *ninf.Client, _ func() (net.Conn, error)) func(context.Context) error {
			h, _ := ninf.HandleFor(in)
			return func(ctx context.Context) error {
				var dst []float64
				return c.FetchData(ctx, h, &dst)
			}
		}},
		{"Transaction.EndContext", func(t *testing.T, _ *ninf.Client, dial func() (net.Conn, error)) func(context.Context) error {
			tx := ninf.BeginTransaction(ninf.SingleServer("s", dial))
			tx.SetRetryPolicy(ninf.NoRetry)
			tx.Call("echo", n, in, out)
			return tx.EndContext
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			_, live := startServer(t, server.Config{CacheBudget: 1 << 20})
			tamper := new(readTamper)
			dial := tamper.dialer(live)
			c := newClient(t, dial)
			c.SetRetryPolicy(ninf.NoRetry)
			if _, err := c.Call("echo", n, in, out); err != nil {
				t.Fatal(err)
			}
			op := r.prep(t, c, dial)
			tamper.mute.Store(true)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			err := op(ctx)
			if took := time.Since(start); took > deadline+time.Second {
				t.Errorf("returned after %v, deadline %v", took, deadline)
			}
			if !errors.Is(err, ctx.Err()) || ctx.Err() == nil {
				t.Errorf("err = %v, want one that wraps the context's %v", err, ctx.Err())
			}
		})
	}

	// DialContext's ctx bounds the first dial and every later one.
	t.Run("DialContext/expired", func(t *testing.T) {
		_, addr, _, _ := gateServer(t, server.Config{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if c, err := ninf.DialContext(ctx, "tcp", addr); err == nil {
			c.Close()
			t.Fatal("dialed with an expired ctx")
		}
	})
	t.Run("DialContext/redial", func(t *testing.T) {
		_, addr, _, _ := gateServer(t, server.Config{})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c, err := ninf.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetRetryPolicy(ninf.NoRetry)
		c.SetPoolSize(0) // the pooled connection goes: the next exchange dials
		cancel()
		if err := c.Ping(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Ping after ctx was cancelled: %v, want a re-dial that fails with it", err)
		}
	})
}

// submit submits one echo on the live server.
func submit(t *testing.T, c *ninf.Client, in, out []float64) *ninf.Job {
	t.Helper()
	job, err := c.Submit("echo", len(in), in, out)
	if err != nil {
		t.Fatal(err)
	}
	return job
}
