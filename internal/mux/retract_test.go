package mux

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ninf/internal/protocol"
)

// scriptConn is a Session's whole connection on writer_test.go's
// scripted recConn: the writer's frames are named and timed there, and
// the read side delivers exactly what the test feeds it, when it feeds
// it. A retraction's outcome is decided by where in the frame schedule
// it lands, so the tests place it from recConn's hooks — on the writer
// goroutine, between two named frames — and nothing depends on how
// goroutines happen to be scheduled or on how many cores run them.
type scriptConn struct {
	net.Conn // never set: deadlines and addresses are not used
	rec      *recConn
	in       chan []byte
	rest     []byte
	once     sync.Once
	closed   chan struct{}
}

func (c *scriptConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
		return c.rec.Write(p)
	}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		select {
		case c.rest = <-c.in:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// feed delivers one frame from the peer.
func (c *scriptConn) feed(t protocol.MsgType, seq uint32, payload string) {
	var b bytes.Buffer
	protocol.WriteMuxFrame(&b, t, seq, []byte(payload))
	c.in <- b.Bytes()
}

// scriptSession is Open on a scripted connection and its clock, granted
// the cache or not.
func scriptSession(t *testing.T, cache bool) (*Session, *scriptConn) {
	c := &scriptConn{rec: &recConn{failAt: -1, rate: floorRate}, in: make(chan []byte, 4), closed: make(chan struct{})}
	s := &Session{
		conn:       c,
		maxPayload: 16 << 20,
		pending:    make(map[uint32]chan Message),
		done:       make(chan struct{}),
		readDone:   make(chan struct{}),
	}
	s.w = newWriter(c, cache, func(err error) { s.fail(fmt.Errorf("mux: session write failed: %w", err)) }, nil, c.rec.now)
	go s.readLoop()
	t.Cleanup(func() { s.Close() })
	return s, c
}

func newHold() *hold { return &hold{settled: make(chan struct{})} }

// untilAbandoned parks the calling goroutine — the writer, inside a
// Write — until the stream's enqueuer has abandoned it.
func untilAbandoned(h *hold) {
	for !h.abandoned.Load() {
		runtime.Gosched()
	}
}

func isSettled(h *hold) bool {
	select {
	case <-h.settled:
		return true
	default:
		return false
	}
}

// smallCall runs one frame exchange under seq, answered from the hook
// once its frame is on the wire.
func smallCall(t *testing.T, s *Session, c *scriptConn, seq uint32) {
	t.Helper()
	name := fmt.Sprintf("f%d", seq)
	c.rec.onFrame = func(got string) {
		if got == name {
			c.feed(protocol.MsgCallOK, seq, "pong")
		}
	}
	rt, fb, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf("ping"))
	if err != nil || rt != protocol.MsgCallOK || string(fb.Payload()) != "pong" {
		t.Fatalf("small call after the retraction: type %v, err %v", rt, err)
	}
	fb.Release()
}

// TestRetractBeforeLastChunk is the client's speculation as the mux
// sees it: a query is posted, the upload queued behind it, and the
// retraction lands with two of nine chunks written. The writer ends the
// stream with MsgBulkAbort, the caller gets Retracted with the bytes
// that were wasted, the spans are released, and the session carries on:
// the query's answer is still deliverable and a new call completes.
func TestRetractBeforeLastChunk(t *testing.T) {
	s, c := scriptSession(t, true)
	h, retract := newHold(), make(chan struct{})
	c.rec.onFrame = func(name string) {
		if name == "2c1" {
			close(retract)
			untilAbandoned(h)
		}
	}
	q, err := s.Post(context.Background(), protocol.MsgCallDigest, reqBuf("held?"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = s.roundtripBulk(context.Background(), protocol.RawBulkMsg(protocol.MsgCall, nineChunks), retract, h)
	var r Retracted
	if !errors.As(err, &r) || r.Sent != 2*chunkFloor {
		t.Fatalf("err = %v, want Retracted after %d bytes", err, 2*chunkFloor)
	}
	if want := []string{"f1", "2begin", "2c0", "2c1", "2abort"}; !reflect.DeepEqual(c.rec.frames, want) {
		t.Errorf("frames %v, want %v", c.rec.frames, want)
	}
	if !isSettled(h) || h.written {
		t.Errorf("hold settled %v, written %v; want settled as not written", isSettled(h), h.written)
	}
	if s.Broken() || s.InFlight() != 1 {
		t.Fatalf("session broken %v with %d in flight, want alive with the query alone", s.Broken(), s.InFlight())
	}
	c.feed(protocol.MsgDigestStatus, 1, "yes")
	rt, fb, _, err := q.Wait(context.Background())
	if err != nil || rt != protocol.MsgDigestStatus || string(fb.Payload()) != "yes" {
		t.Fatalf("posted query: type %v, err %v", rt, err)
	}
	fb.Release()
	smallCall(t, s, c, 3)
	if n := s.InFlight(); n != 0 {
		t.Errorf("%d sequences still pending", n)
	}
}

// TestRetractBeforeBegin: a stream retracted before its begin header
// puts nothing on the wire, abort included, and wasted nothing.
func TestRetractBeforeBegin(t *testing.T) {
	s, c := scriptSession(t, true)
	h, retract := newHold(), make(chan struct{})
	close(retract)
	c.rec.onFrame = func(name string) {
		if name == "f1" {
			untilAbandoned(h) // the bulk item is queued behind f1 by then, or will find itself abandoned when it is
		}
	}
	q, err := s.Post(context.Background(), protocol.MsgCallDigest, reqBuf("held?"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = s.roundtripBulk(context.Background(), protocol.RawBulkMsg(protocol.MsgCall, nineChunks), retract, h)
	if r := (Retracted{}); !errors.As(err, &r) || r.Sent != 0 {
		t.Fatalf("err = %v, want Retracted after 0 bytes", err)
	}
	if want := []string{"f1"}; !reflect.DeepEqual(c.rec.frames, want) {
		t.Errorf("frames %v, want %v", c.rec.frames, want)
	}
	c.feed(protocol.MsgDigestStatus, 1, "")
	if _, fb, _, err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	} else {
		fb.Release()
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("%d sequences still pending", n)
	}
}

// TestRetractAfterLastChunk: once the last chunk is written the request
// is the peer's and may be running, so a retraction is void — no abort
// frame, no Retracted — and the reply is awaited and returned as if it
// had never been asked for. The reply is fed only after the caller has
// provably acted on the retraction.
func TestRetractAfterLastChunk(t *testing.T) {
	s, c := scriptSession(t, true)
	h, retract := newHold(), make(chan struct{})
	c.rec.onFrame = func(name string) {
		if name == "1c1" {
			close(retract)
		}
	}
	go func() {
		untilAbandoned(h)
		<-h.settled
		c.feed(protocol.MsgCallOK, 1, "done")
	}()
	rt, fb, _, err := s.roundtripBulk(context.Background(), protocol.RawBulkMsg(protocol.MsgCall, nineChunks[:2*chunkFloor]), retract, h)
	if err != nil || rt != protocol.MsgCallOK || string(fb.Payload()) != "done" {
		t.Fatalf("type %v, err %v; want the reply", rt, err)
	}
	fb.Release()
	if want := []string{"1begin", "1c0", "1c1"}; !reflect.DeepEqual(c.rec.frames, want) {
		t.Errorf("frames %v, want %v", c.rec.frames, want)
	}
	if !h.written {
		t.Error("hold not settled as written")
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("%d sequences still pending", n)
	}
}

// TestRetractRaces fires the retraction together with the caller's
// context ending, and with the session failing. Which wins is open;
// that the exchange has exactly one outcome — an error of one of the
// two kinds, never a reply nobody sent — the spans are released and no
// sequence stays registered is not, and after a lost race with the
// context the session still works.
func TestRetractRaces(t *testing.T) {
	for _, mode := range []string{"cancel", "fail"} {
		t.Run(mode, func(t *testing.T) {
			for round := 0; round < 40; round++ {
				s, c := scriptSession(t, true)
				h, retract := newHold(), make(chan struct{})
				ctx, cancel := context.WithCancel(context.Background())
				at := fmt.Sprintf("1c%d", round%8) // the stream has nine chunks
				c.rec.onFrame = func(name string) {
					if name != at {
						return
					}
					first, second := func() { close(retract) }, cancel
					if mode == "fail" {
						second = func() { c.Close() }
					}
					if round%2 == 1 {
						first, second = second, first
					}
					first()
					second()
				}
				rt, fb, _, err := s.roundtripBulk(ctx, protocol.RawBulkMsg(protocol.MsgCall, nineChunks), retract, h)
				cancel()
				var r Retracted
				switch {
				case err == nil:
					fb.Release()
					t.Fatalf("round %d: a reply of type %v to a request nobody answered", round, rt)
				case errors.As(err, &r):
					if slices.Contains(c.rec.frames, "1c8") {
						t.Fatalf("round %d: Retracted, but the last chunk is on the wire: %v", round, c.rec.frames)
					}
				case mode == "cancel" && errors.Is(err, context.Canceled):
				case mode == "fail" && errors.Is(err, net.ErrClosed):
				default:
					t.Fatalf("round %d: err = %v, want Retracted or the competing cause", round, err)
				}
				if !isSettled(h) {
					t.Fatalf("round %d: returned with the spans still held", round)
				}
				if n := s.InFlight(); n != 0 {
					t.Fatalf("round %d: %d sequences still pending", round, n)
				}
				if mode == "cancel" {
					if s.Broken() {
						t.Fatalf("round %d: session failed: %v", round, s.Err())
					}
					smallCall(t, s, c, 2)
				}
				s.Close()
			}
		})
	}
}
