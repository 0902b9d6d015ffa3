package ninf_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// TestLockstepCallHonorsOverloadHint: a server that refuses a call with
// CodeOverloaded and a retry-after hint must be left alone for at least
// that long, whichever transport carried the call. The lockstep Call
// path used to drop the hint while decoding the error frame, so its
// retry followed the millisecond backoff schedule instead.
//
// The scripted server relays every lockstep exchange to a real one,
// except that the first MsgCall is answered with the overload rejection.
func TestLockstepCallHonorsOverloadHint(t *testing.T) {
	const hint = 300 * time.Millisecond
	_, backend := startServer(t, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var rejected atomic.Bool
	relay := func(conn net.Conn) {
		defer conn.Close()
		up, err := backend()
		if err != nil {
			return
		}
		defer up.Close()
		for {
			typ, p, err := protocol.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			if typ == protocol.MsgCall && rejected.CompareAndSwap(false, true) {
				err = protocol.WriteFrame(conn, protocol.MsgError,
					protocol.EncodeErrorReply(protocol.CodeOverloaded, "scripted overload", uint32(hint/time.Millisecond)))
			} else {
				if err = protocol.WriteFrame(up, typ, p); err != nil {
					return
				}
				if typ, p, err = protocol.ReadFrame(up, 0); err != nil {
					return
				}
				err = protocol.WriteFrame(conn, typ, p)
			}
			if err != nil {
				return
			}
		}
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go relay(conn)
		}
	}()

	c, err := ninf.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetMultiplexing(false)
	if _, err := c.Interface("echo"); err != nil {
		t.Fatal(err)
	}
	in, out := []float64{7}, make([]float64, 1)
	start := time.Now()
	if _, err := c.Call("echo", 1, in, out); err != nil {
		t.Fatal(err)
	}
	waited := time.Since(start)
	if !rejected.Load() || out[0] != 7 {
		t.Fatalf("rejected=%v out=%v: the scripted rejection never happened", rejected.Load(), out)
	}
	if waited < hint {
		t.Errorf("retry came after %v, sooner than the server's %v retry-after hint", waited, hint)
	}
}
