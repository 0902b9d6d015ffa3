package ninf_test

// Closing a client with calls still on the wire must fail those calls
// promptly with a classified error — never hang them, never leak their
// goroutines (the package's testleak TestMain enforces the latter).

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/server"
)

// blackHoleListener accepts connections, swallows everything written
// to them, and never replies — a server that went catatonic
// mid-exchange. Each accept is signalled on the returned channel.
func blackHoleListener(t *testing.T) (net.Listener, <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan struct{}, 16)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c)
			}(c)
		}
	}()
	return l, accepted
}

func TestCloseWithInFlightCalls(t *testing.T) {
	_, realDial := startServer(t, server.Config{Hostname: "closetest"})
	hole, accepted := blackHoleListener(t)

	// The first dial (the connection NewClient seeds the pool with)
	// reaches the real server so the interface cache can be warmed; the
	// pool is then emptied, so CallAsync and Submit must each dial, and
	// every later dial lands in the black hole — guaranteeing both calls
	// are stuck mid-exchange when Close fires.
	var dials int32
	dial := func() (net.Conn, error) {
		if atomic.AddInt32(&dials, 1) == 1 {
			return realDial()
		}
		return net.Dial("tcp", hole.Addr().String())
	}
	c, err := ninf.NewClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(ninf.NoRetry) // a retry would just re-enter the hole
	// This test stages two separate pooled connections in the hole; a
	// multiplexed client would share one session dial between the two
	// calls (that shape is covered by TestCloseSeversMuxHandshake).
	c.SetMultiplexing(false)
	if _, err := c.Interface("dmmul"); err != nil {
		t.Fatal(err)
	}
	c.SetPoolSize(0)

	const n = 4
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	got := make([]float64, n*n)
	got2 := make([]float64, n*n)

	ac := c.CallAsync("dmmul", n, a, b, got)
	submitErr := make(chan error, 1)
	go func() {
		_, err := c.Submit("dmmul", n, a, b, got2)
		submitErr <- err
	}()

	// Both pooled connections are in the hole with their requests
	// written (or about to be) — now pull the rug.
	for i := 0; i < 2; i++ {
		select {
		case <-accepted:
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight connection never reached the black hole")
		}
	}
	time.Sleep(20 * time.Millisecond) // let both exchanges block in read
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	waitErr := make(chan error, 1)
	go func() {
		_, err := ac.Wait()
		waitErr <- err
	}()
	for name, ch := range map[string]chan error{"CallAsync": waitErr, "Submit": submitErr} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("%s succeeded against a black hole", name)
			} else if !errors.Is(err, ninf.ErrClientClosed) {
				t.Errorf("%s error not classified as client-closed: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung after Close instead of failing", name)
		}
	}

	// Calls issued after Close fail immediately with the same class.
	if _, err := c.Call("dmmul", n, a, b, got); !errors.Is(err, ninf.ErrClientClosed) {
		t.Errorf("Call after Close: %v", err)
	}
}

// TestCloseSeversMuxHandshake is the multiplexed twin of the test
// above: the first call on a mux client dials the session and blocks
// in version negotiation against a catatonic server; Close must sever
// the handshake (the connection is on the pool's active books from
// the moment it is dialed) and fail the call as client-closed.
func TestCloseSeversMuxHandshake(t *testing.T) {
	_, realDial := startServer(t, server.Config{Hostname: "closetest"})
	hole, accepted := blackHoleListener(t)

	// Dial #1 (the pool's seed connection) reaches the real server so
	// the interface cache warms over lockstep; the pool is then emptied,
	// so the session handshake has to dial, and dial #2 lands in the
	// black hole.
	var dials int32
	dial := func() (net.Conn, error) {
		if atomic.AddInt32(&dials, 1) == 1 {
			return realDial()
		}
		return net.Dial("tcp", hole.Addr().String())
	}
	c, err := ninf.NewClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(ninf.NoRetry)
	if _, err := c.Interface("dmmul"); err != nil {
		t.Fatal(err)
	}
	c.SetPoolSize(0)

	const n = 4
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	got := make([]float64, n*n)
	ac := c.CallAsync("dmmul", n, a, b, got)

	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("session handshake never reached the black hole")
	}
	time.Sleep(20 * time.Millisecond) // let Negotiate block in read
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	waitErr := make(chan error, 1)
	go func() {
		_, err := ac.Wait()
		waitErr <- err
	}()
	select {
	case err := <-waitErr:
		if err == nil {
			t.Error("CallAsync succeeded against a black hole")
		} else if !errors.Is(err, ninf.ErrClientClosed) {
			t.Errorf("CallAsync error not classified as client-closed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CallAsync hung in the severed handshake after Close")
	}
}
