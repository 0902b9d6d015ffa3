package ninf_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/idl"
	"ninf/internal/protocol"
)

const mixIDL = `
Define mix(mode_in int n, mode_in double a[n], mode_inout double b[n], mode_out double c[n])
    "one in, one inout, one out array" Calls "go" mix(n, a, b, c);
`

// truncatingServer is a lockstep server for mix that cuts call replies
// short: it answers a call with only the first cut bytes of the right
// reply payload (framed honestly, so the client reads a whole frame and
// fails in decode) for the first `bad` attempts, and with the whole
// reply after that. It keeps every call request it saw.
type truncatingServer struct {
	info *idl.Info
	full []byte // the right MsgCallOK payload

	mu       sync.Mutex
	cut, bad int
	requests [][]byte
}

func (s *truncatingServer) serve(conn net.Conn) {
	defer conn.Close()
	for {
		typ, p, err := protocol.ReadFrame(conn, 0)
		if err != nil {
			return
		}
		switch typ {
		case protocol.MsgInterface:
			ip, err := protocol.EncodeInterfaceReply(s.info)
			if err != nil {
				return
			}
			err = protocol.WriteFrame(conn, protocol.MsgInterfaceOK, ip)
			if err != nil {
				return
			}
		case protocol.MsgCall:
			s.mu.Lock()
			s.requests = append(s.requests, p)
			reply := s.full
			if len(s.requests) <= s.bad {
				reply = s.full[:s.cut]
			}
			s.mu.Unlock()
			if err := protocol.WriteFrame(conn, protocol.MsgCallOK, reply); err != nil {
				return
			}
		default:
			return
		}
	}
}

// arm resets the server for one call: the next bad attempts are cut.
func (s *truncatingServer) arm(cut, bad int) {
	s.mu.Lock()
	s.cut, s.bad, s.requests = cut, bad, nil
	s.mu.Unlock()
}

// TestTruncatedReplyLeavesArgumentsAsSent: results are decoded straight
// into the caller's slices, so a reply that turns out short must be
// noticed before the first of them is written. Cut at every 8 KiB
// boundary, the reply fails with the error class it always had (a
// retryable short read), the inout array and the out array that aliases
// an input are bit for bit what was sent — and so the retry sends the
// same request again and its reply lands right.
func TestTruncatedReplyLeavesArgumentsAsSent(t *testing.T) {
	infos, err := idl.Parse(mixIDL)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	a, b := make([]float64, n), make([]float64, n)
	newB, newC := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i)+0.5, -float64(i)
		newB[i], newC[i] = float64(3*i), float64(7*i)+0.25
	}
	aSent, bSent := append([]float64(nil), a...), append([]float64(nil), b...)
	_, fb, err := protocol.EncodeReply(infos[0], protocol.Timings{Enqueue: 1, Dequeue: 2, Complete: 3},
		[]idl.Value{int64(n), a, newB, newC}, protocol.Shape{})
	if err != nil {
		t.Fatal(err)
	}
	full := protocol.CopyOut(fb)
	srv := &truncatingServer{info: infos[0], full: full}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.serve(conn)
		}
	}()
	c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) })
	c.SetMultiplexing(false)

	for cut := 0; cut < len(full); cut += 8 << 10 {
		// The out array c is passed the input a's slice.
		srv.arm(cut, 1)
		c.SetRetryPolicy(ninf.NoRetry)
		_, err := c.Call("mix", n, a, b, a)
		if err == nil {
			t.Fatalf("cut=%d: truncated reply decoded", cut)
		}
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if !errors.Is(err, want) || !ninf.Retryable(err) {
			t.Errorf("cut=%d: error %v, want a retryable %v", cut, err, want)
		}
		if !sameBits(a, aSent) || !sameBits(b, bSent) {
			t.Fatalf("cut=%d: a failed reply wrote into the caller's arrays", cut)
		}

		srv.arm(cut, 1)
		c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
		if _, err := c.Call("mix", n, a, b, a); err != nil {
			t.Fatalf("cut=%d: retried call: %v", cut, err)
		}
		srv.mu.Lock()
		reqs := srv.requests
		srv.mu.Unlock()
		if len(reqs) != 2 || !bytes.Equal(reqs[0], reqs[1]) {
			t.Fatalf("cut=%d: %d attempts; the retry did not re-send the request as first sent", cut, len(reqs))
		}
		if !sameBits(b, newB) || !sameBits(a, newC) {
			t.Fatalf("cut=%d: results of the retried call are wrong", cut)
		}
		copy(a, aSent)
		copy(b, bSent)
	}
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] { // no NaNs in this test's data
			return false
		}
	}
	return true
}
