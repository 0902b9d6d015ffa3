package ninf_test

import (
	"net"
	"strings"
	"testing"

	"ninf"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// misbehavingServer answers every frame with an unexpected type, to
// exercise the client's protocol-error paths.
func misbehavingServer(t *testing.T) func() (net.Conn, error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					if _, _, err := protocol.ReadFrame(conn, 0); err != nil {
						return
					}
					if protocol.WriteFrame(conn, protocol.MsgPong, nil) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	addr := l.Addr().String()
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestClientRejectsUnexpectedReplies(t *testing.T) {
	c := newClient(t, misbehavingServer(t))
	if err := c.Ping(); err != nil {
		t.Errorf("ping (the one legitimate pong): %v", err)
	}
	if _, err := c.List(); err == nil || !strings.Contains(err.Error(), "unexpected reply") {
		t.Errorf("List: %v", err)
	}
	if _, err := c.Stats(); err == nil || !strings.Contains(err.Error(), "unexpected reply") {
		t.Errorf("Stats: %v", err)
	}
	if _, err := c.Trace(); err == nil || !strings.Contains(err.Error(), "unexpected reply") {
		t.Errorf("Trace: %v", err)
	}
	if _, err := c.Interface("x"); err == nil || !strings.Contains(err.Error(), "unexpected reply") {
		t.Errorf("Interface: %v", err)
	}
	if _, err := c.Call("x", 1); err == nil {
		t.Error("Call against misbehaving server succeeded")
	}
	if _, err := c.Submit("x", 1); err == nil {
		t.Error("Submit against misbehaving server succeeded")
	}
}

func TestStoreResultDestinationErrors(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	n := 4
	data := make([]float64, n)
	// Wrong-size destination slice for an out array.
	if _, err := c.Call("echo", n, data, make([]float64, n-1)); err == nil {
		t.Error("short destination accepted")
	}
	// Wrong-type destination.
	if _, err := c.Call("echo", n, data, make([]int64, n)); err == nil {
		t.Error("wrong-typed destination accepted")
	}
	// Wrong destination for an out scalar.
	var wrong string
	if _, err := c.Call("ep", 4, 0, 16, &wrong, nil, nil, nil); err == nil {
		t.Error("string pointer for double scalar accepted")
	}
}

func TestServerClosedMidSession(t *testing.T) {
	s, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after server close")
	}
}

func TestSingleServerSchedulerExcludesItself(t *testing.T) {
	sched := ninf.SingleServer("only", func() (net.Conn, error) { return nil, nil })
	if _, err := sched.Place(ninf.SchedRequest{Routine: "r", Exclude: []string{"only"}}); err == nil {
		t.Error("excluded single server still placed")
	}
	pl, err := sched.Place(ninf.SchedRequest{Routine: "r"})
	if err != nil || pl.Name != "only" {
		t.Errorf("place: %+v %v", pl, err)
	}
	sched.Observe("only", 1, 1, nil) // must not panic
}
