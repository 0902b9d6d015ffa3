package mux

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ninf/internal/protocol"
)

// fakeMuxServer accepts the Hello negotiation on conn and then serves
// mux frames with handle until the connection dies. handle returns the
// reply type and payload for one request; returning ok=false drops the
// request (never replied — a black-holed Seq).
func fakeMuxServer(t *testing.T, conn net.Conn, handle func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, bool)) {
	t.Helper()
	typ, p, err := protocol.ReadFrame(conn, 0)
	if err != nil {
		t.Errorf("fake server: hello read: %v", err)
		return
	}
	if typ != protocol.MsgHello {
		t.Errorf("fake server: expected hello, got %v", typ)
		return
	}
	if _, err := protocol.DecodeHelloRequest(p); err != nil {
		t.Errorf("fake server: hello decode: %v", err)
		return
	}
	rep := protocol.HelloReply{Version: protocol.MuxVersionCache}
	if err := protocol.WriteFrame(conn, protocol.MsgHelloOK, rep.Encode()); err != nil {
		t.Errorf("fake server: hello reply: %v", err)
		return
	}
	var wmu sync.Mutex
	br := bufio.NewReader(conn)
	for {
		typ, seq, fb, err := protocol.ReadMuxFrameBuf(br, 0)
		if err != nil {
			return // conn closed by the client or the test
		}
		payload := append([]byte(nil), fb.Payload()...)
		fb.Release()
		go func() {
			rt, rp, ok := handle(typ, seq, payload)
			if !ok {
				return
			}
			wmu.Lock()
			defer wmu.Unlock()
			if err := protocol.WriteMuxFrame(conn, rt, seq, rp); err != nil {
				return
			}
		}()
	}
}

// dialSession builds a negotiated session against a fake server.
func dialSession(t *testing.T, handle func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, bool)) (*Session, net.Conn) {
	t.Helper()
	cc, sc := net.Pipe()
	go fakeMuxServer(t, sc, handle)
	hello, err := NegotiateHello(cc, 0)
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	s := Open(cc, 0, hello.Flags&protocol.HelloFlagArgCache != 0)
	t.Cleanup(func() {
		s.Close()
		sc.Close()
	})
	return s, sc
}

func echoHandler(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, bool) {
	return protocol.MsgCallOK, payload, true
}

func reqBuf(payload string) *protocol.Buffer {
	fb := protocol.AcquireBuffer(len(payload))
	fb.Write([]byte(payload))
	return fb
}

// TestNegotiateHelloVersions: the client offers MuxVersionCache and
// takes two answers, MuxVersionCache (every server of this module) and
// MuxVersionBulk (the benchmark harness's responder); any other version
// is refused.
func TestNegotiateHelloVersions(t *testing.T) {
	for _, v := range []uint32{protocol.MuxVersion, protocol.MuxVersionBulk, protocol.MuxVersionCache, protocol.MuxVersionCache + 1} {
		cc, sc := net.Pipe()
		offered := make(chan uint32, 1)
		go func() {
			defer sc.Close()
			_, p, err := protocol.ReadFrame(sc, 0)
			req, derr := protocol.DecodeHelloRequest(p)
			if err != nil || derr != nil {
				offered <- 0
				return
			}
			offered <- req.MaxVersion
			rep := protocol.HelloReply{Version: v, Flags: protocol.HelloFlagArgCache}
			protocol.WriteFrame(sc, protocol.MsgHelloOK, rep.Encode())
		}()
		rep, err := NegotiateHello(cc, 0)
		cc.Close()
		if got := <-offered; got != protocol.MuxVersionCache {
			t.Errorf("the Hello offered MaxVersion %d, want %d", got, protocol.MuxVersionCache)
		}
		accept := v == protocol.MuxVersionBulk || v == protocol.MuxVersionCache
		if (err == nil) != accept || accept && rep.Version != v {
			t.Errorf("reply version %d: got %+v, %v; want accepted %t", v, rep, err, accept)
		}
	}
}

func TestSessionPipelinedEcho(t *testing.T) {
	s, _ := dialSession(t, echoHandler)
	const callers = 32
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				want := fmt.Sprintf("caller-%d-call-%d", i, k)
				rt, fb, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf(want))
				if err != nil {
					errs[i] = err
					return
				}
				if rt != protocol.MsgCallOK || string(fb.Payload()) != want {
					errs[i] = fmt.Errorf("got (%v, %q), want (CallOK, %q)", rt, fb.Payload(), want)
				}
				fb.Release()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after drain = %d", n)
	}
}

// TestSessionDemuxOutOfOrder holds the first request's reply until the
// second has been answered: the demultiplexer must route each reply to
// its own caller regardless of arrival order.
func TestSessionDemuxOutOfOrder(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, _ := dialSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, bool) {
		if string(payload) == "slow" {
			<-release
		} else {
			once.Do(func() { close(release) })
		}
		return protocol.MsgCallOK, payload, true
	})
	var wg sync.WaitGroup
	results := make([]string, 2)
	for i, p := range []string{"slow", "fast"} {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, fb, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf(p))
			if err != nil {
				t.Errorf("%s: %v", p, err)
				return
			}
			results[i] = string(fb.Payload())
			fb.Release()
		}()
		// Make sure "slow" is enqueued first.
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	if results[0] != "slow" || results[1] != "fast" {
		t.Errorf("demux misrouted replies: %q", results)
	}
}

// TestSessionCtxAbandonsSeq cancels one in-flight exchange: only that
// caller fails (with the context error), the session survives, and
// later exchanges work.
func TestSessionCtxAbandonsSeq(t *testing.T) {
	s, _ := dialSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, bool) {
		if string(payload) == "blackhole" {
			return 0, nil, false // never reply
		}
		return protocol.MsgCallOK, payload, true
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, _, err := s.Roundtrip(ctx, protocol.MsgCall, reqBuf("blackhole"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned seq: got %v, want DeadlineExceeded", err)
	}
	if s.Broken() {
		t.Fatal("session died with the abandoned seq")
	}
	// The same through Post: a Wait whose ctx has already ended
	// deregisters the sequence instead of awaiting its reply.
	ended, end := context.WithCancel(context.Background())
	p, err := s.Post(ended, protocol.MsgCall, reqBuf("blackhole"))
	if err != nil {
		t.Fatal(err)
	}
	end()
	if _, _, _, err := p.Wait(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on an ended ctx: got %v, want Canceled", err)
	}
	rt, fb, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf("after"))
	if err != nil || rt != protocol.MsgCallOK || string(fb.Payload()) != "after" {
		t.Fatalf("exchange after abandonment: %v %v", rt, err)
	}
	fb.Release()
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after abandonment = %d", n)
	}
}

// TestSessionTeardownFailsInFlight severs the connection under a
// pipeline of waiting calls: every one must return a transport-shaped
// error (EOF family), and the session must report Broken.
func TestSessionTeardownFailsInFlight(t *testing.T) {
	started := make(chan struct{}, 16)
	s, sc := dialSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, bool) {
		started <- struct{}{}
		return 0, nil, false // hold every request in flight
	})
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, _, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf("held"))
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	sc.Close() // mid-session reset
	for i := 0; i < callers; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("in-flight call survived session teardown")
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, net.ErrClosed) {
			t.Errorf("teardown error not transport-shaped: %v", err)
		}
	}
	if !s.Broken() {
		t.Fatal("session not Broken after teardown")
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after teardown = %d", n)
	}
	if _, _, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf("late")); err == nil {
		t.Fatal("roundtrip on a dead session succeeded")
	}
}

// TestSessionCloseFailsInFlight: a local Close has the same all-Seqs
// semantics, with net.ErrClosed as the cause.
func TestSessionCloseFailsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	s, _ := dialSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, bool) {
		started <- struct{}{}
		return 0, nil, false
	})
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf("held"))
		errCh <- err
	}()
	<-started
	s.Close()
	if err := <-errCh; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("close error = %v, want net.ErrClosed in chain", err)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after close = %d", n)
	}
}

// TestNegotiateLegacy: a version-1 peer answers Hello with MsgError
// (unknown frame), which must surface as ErrLegacy.
func TestNegotiateLegacy(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		typ, _, err := protocol.ReadFrame(sc, 0)
		if err != nil || typ != protocol.MsgHello {
			t.Errorf("legacy server: %v %v", typ, err)
			return
		}
		// What the pre-mux dispatch does with an unknown frame type.
		protocol.WriteFrame(sc, protocol.MsgError,
			protocol.EncodeErrorReply(protocol.CodeInternal, "unexpected frame Hello", 0))
	}()
	_, err := NegotiateHello(cc, 0)
	<-done
	if !errors.Is(err, ErrLegacy) {
		t.Fatalf("negotiate against legacy peer = %v, want ErrLegacy", err)
	}
}

func TestNegotiateTransportFault(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	go func() {
		protocol.ReadFrame(sc, 0)
		sc.Close() // die before answering
	}()
	_, err := NegotiateHello(cc, 0)
	if err == nil || errors.Is(err, ErrLegacy) {
		t.Fatalf("negotiate against dying peer = %v, want transport fault", err)
	}
}
