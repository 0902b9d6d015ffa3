package mux

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ninf/internal/protocol"
)

// bulkHandler services one request for fakeBulkServer. payload is the
// complete (reassembled, for chunked requests) message payload. A
// non-nil reply streams back chunked; otherwise rp goes back as one
// monolithic frame. ok=false black-holes the request.
type bulkHandler func(typ protocol.MsgType, seq uint32, payload []byte) (rt protocol.MsgType, rp []byte, bulk *protocol.BulkMsg, ok bool)

// fakeBulkServer is fakeMuxServer that reassembles chunked requests and
// can stream chunked replies. It answers the Hello with MuxVersionBulk,
// as the benchmark harness's responder does, so its sessions are made
// the way that harness makes them (New on the Hello's version).
func fakeBulkServer(t *testing.T, conn net.Conn, handle bulkHandler) {
	t.Helper()
	typ, p, err := protocol.ReadFrame(conn, 0)
	if err != nil || typ != protocol.MsgHello {
		t.Errorf("fake bulk server: hello: %v %v", typ, err)
		return
	}
	if _, err := protocol.DecodeHelloRequest(p); err != nil {
		t.Errorf("fake bulk server: hello decode: %v", err)
		return
	}
	rep := protocol.HelloReply{Version: protocol.MuxVersionBulk}
	if err := protocol.WriteFrame(conn, protocol.MsgHelloOK, rep.Encode()); err != nil {
		t.Errorf("fake bulk server: hello reply: %v", err)
		return
	}
	var wmu sync.Mutex
	reply := func(seq uint32, rt protocol.MsgType, rp []byte, bulk *protocol.BulkMsg) {
		wmu.Lock()
		defer wmu.Unlock()
		if bulk != nil {
			defer bulk.Release()
			fb := bulk.EncodeBegin()
			err := protocol.WriteMuxFrameBuf(conn, protocol.MsgBulkBegin, seq, fb)
			fb.Release()
			if err != nil {
				return
			}
			cur := bulk.Cursor()
			for {
				done, err := cur.WriteChunk(conn, seq, protocol.DefaultBulkChunk)
				if err != nil || done {
					return
				}
			}
		}
		protocol.WriteMuxFrame(conn, rt, seq, rp)
	}
	br := bufio.NewReader(conn)
	ra := protocol.NewReassembler(0, 0)
	defer ra.Close()
	for {
		typ, seq, n, err := protocol.ReadMuxHeader(br, 0)
		if err != nil {
			return
		}
		switch typ {
		case protocol.MsgBulkBegin:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				return
			}
			berr := ra.Begin(seq, fb.Payload(), false)
			fb.Release()
			if berr != nil {
				t.Errorf("fake bulk server: begin: %v", berr)
				return
			}
		case protocol.MsgBulkChunk:
			bd, err := ra.ReadChunk(br, seq, n)
			if err != nil {
				t.Errorf("fake bulk server: chunk: %v", err)
				return
			}
			if bd != nil {
				payload := append([]byte(nil), bd.Bulk.Base...)
				bd.FB.Release()
				go func() {
					if rt, rp, bm, ok := handle(bd.Type, seq, payload); ok {
						reply(seq, rt, rp, bm)
					}
				}()
			}
		case protocol.MsgBulkAbort:
			if n > 0 {
				fb, err := protocol.ReadMuxPayload(br, n)
				if err != nil {
					return
				}
				fb.Release()
			}
			ra.Abort(seq)
		default:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				return
			}
			payload := append([]byte(nil), fb.Payload()...)
			fb.Release()
			go func() {
				if rt, rp, bm, ok := handle(typ, seq, payload); ok {
					reply(seq, rt, rp, bm)
				}
			}()
		}
	}
}

func dialBulkSession(t *testing.T, handle bulkHandler) (*Session, net.Conn) {
	t.Helper()
	cc, sc := net.Pipe()
	go fakeBulkServer(t, sc, handle)
	hello, err := NegotiateHello(cc, 0)
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	if hello.Version != protocol.MuxVersionBulk {
		t.Fatalf("negotiated version %d, want %d", hello.Version, protocol.MuxVersionBulk)
	}
	s := New(cc, 0, int(hello.Version))
	t.Cleanup(func() {
		s.Close()
		sc.Close()
	})
	return s, sc
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// TestRoundtripBulkEcho streams a 1 MiB request as chunks and gets the
// reassembled bytes back monolithically: the full chunked send path —
// begin, interleaved cursor writes, server reassembly — preserves the
// payload exactly.
func TestRoundtripBulkEcho(t *testing.T) {
	s, _ := dialBulkSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, *protocol.BulkMsg, bool) {
		return protocol.MsgCallOK, payload, nil, true
	})
	want := pattern(1<<20, 3)
	rt, fb, bulk, err := s.RoundtripBulk(context.Background(), protocol.RawBulkMsg(protocol.MsgCall, want))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	if rt != protocol.MsgCallOK || bulk != nil {
		t.Fatalf("reply %v bulk=%v", rt, bulk)
	}
	if !bytes.Equal(fb.Payload(), want) {
		t.Fatal("chunked request corrupted in flight")
	}
}

// TestRoundtripBulkReplyReassembled: the server streams a chunked
// reply; the session's read loop reassembles it and hands the caller
// the segment metadata.
func TestRoundtripBulkReplyReassembled(t *testing.T) {
	want := pattern(700<<10, 9)
	s, _ := dialBulkSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, *protocol.BulkMsg, bool) {
		return 0, nil, protocol.RawBulkMsg(protocol.MsgFetchOK, want), true
	})
	rt, fb, bulk, err := s.Roundtrip(context.Background(), protocol.MsgFetch, reqBuf("fetch"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	if rt != protocol.MsgFetchOK {
		t.Fatalf("reply %v", rt)
	}
	if bulk == nil {
		t.Fatal("chunked reply delivered without bulk info")
	}
	if bulk.HeadLen != len(want) {
		t.Fatalf("raw bulk head %d, want %d", bulk.HeadLen, len(want))
	}
	if !bytes.Equal(bulk.Head(), want) {
		t.Fatal("chunked reply corrupted in flight")
	}
	if n := protocol.OpenBulkReassemblies(); n != 0 {
		t.Fatalf("open reassemblies after delivery = %d", n)
	}
}

// TestBulkInterleavesWithSmallCalls runs small echoes concurrently
// with large chunked transfers in both directions: every call must
// complete correctly — no cross-Seq corruption, no deadlock between
// the chunk stream and the control queue.
func TestBulkInterleavesWithSmallCalls(t *testing.T) {
	big := pattern(2<<20, 1)
	s, _ := dialBulkSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, *protocol.BulkMsg, bool) {
		if typ == protocol.MsgFetch {
			return 0, nil, protocol.RawBulkMsg(protocol.MsgFetchOK, big), true
		}
		return protocol.MsgCallOK, payload, nil, true
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, fb, _, err := s.RoundtripBulk(context.Background(), protocol.RawBulkMsg(protocol.MsgCall, big))
			if err != nil {
				errs <- err
				return
			}
			ok := rt == protocol.MsgCallOK && bytes.Equal(fb.Payload(), big)
			fb.Release()
			if !ok {
				errs <- errors.New("bulk echo corrupted")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, fb, bulk, err := s.Roundtrip(context.Background(), protocol.MsgFetch, reqBuf("f"))
			if err != nil {
				errs <- err
				return
			}
			ok := rt == protocol.MsgFetchOK && bulk != nil && bytes.Equal(bulk.Head(), big)
			fb.Release()
			if !ok {
				errs <- errors.New("bulk reply corrupted")
			}
		}()
	}
	for i := 0; i < 24; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := fmt.Sprintf("small-%d", i)
			rt, fb, _, err := s.Roundtrip(context.Background(), protocol.MsgCall, reqBuf(want))
			if err != nil {
				errs <- err
				return
			}
			ok := rt == protocol.MsgCallOK && string(fb.Payload()) == want
			fb.Release()
			if !ok {
				errs <- errors.New("small call corrupted under bulk load")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after drain = %d", n)
	}
	if n := protocol.OpenBulkReassemblies(); n != 0 {
		t.Errorf("open reassemblies after drain = %d", n)
	}
}

// TestRoundtripBulkCtxCancel abandons a black-holed bulk exchange:
// only that caller fails, the stream stays in sync (the writer aborts
// or finishes the transfer), and the session keeps working.
func TestRoundtripBulkCtxCancel(t *testing.T) {
	s, _ := dialBulkSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, *protocol.BulkMsg, bool) {
		if typ == protocol.MsgCall {
			return 0, nil, nil, false // black-hole the bulk call
		}
		return protocol.MsgPong, nil, nil, true
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, _, err := s.RoundtripBulk(ctx, protocol.RawBulkMsg(protocol.MsgCall, pattern(4<<20, 5)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned bulk: %v, want DeadlineExceeded", err)
	}
	if s.Broken() {
		t.Fatal("session died with the abandoned bulk")
	}
	rt, fb, _, err := s.Roundtrip(context.Background(), protocol.MsgPing, reqBuf(""))
	if err != nil || rt != protocol.MsgPong {
		t.Fatalf("exchange after bulk abandonment: %v %v", rt, err)
	}
	fb.Release()
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after bulk abandonment = %d", n)
	}
}

// TestBulkTeardownMidStream severs the connection while chunks are in
// flight: the bulk caller gets a transport error, the session reports
// Broken, and no reassembly buffers leak on either side.
func TestBulkTeardownMidStream(t *testing.T) {
	var once sync.Once
	cut := make(chan struct{})
	s, sc := dialBulkSession(t, func(typ protocol.MsgType, seq uint32, payload []byte) (protocol.MsgType, []byte, *protocol.BulkMsg, bool) {
		once.Do(func() { close(cut) })
		return 0, nil, nil, false
	})
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := s.RoundtripBulk(context.Background(), protocol.RawBulkMsg(protocol.MsgCall, pattern(8<<20, 2)))
		errCh <- err
	}()
	// Cut as soon as the first small probe arrives... there is none:
	// cut after a short delay mid-transfer instead.
	select {
	case <-cut:
	case <-time.After(2 * time.Second):
	}
	sc.Close()
	if err := <-errCh; err == nil {
		t.Fatal("bulk call survived mid-stream teardown")
	}
	if !s.Broken() {
		t.Fatal("session not Broken after mid-stream teardown")
	}
	s.Close()
	if n := protocol.OpenBulkReassemblies(); n != 0 {
		t.Fatalf("open reassemblies after teardown = %d", n)
	}
}
