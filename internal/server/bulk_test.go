package server

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/mux"
	"ninf/internal/protocol"
)

func bigVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%101) - 50
	}
	return v
}

// TestMuxBulkCallRoundTrip drives the full server bulk path over the
// wire: a chunked request reassembles server-side, the handler runs on
// decoded (copied) arguments, and the large result streams back as a
// chunked reply the client reassembles and decodes.
func TestMuxBulkCallRoundTrip(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 2, BulkThreshold: 1024}, reg)
	defer s.Close()
	sess := muxSession(t, s)
	info := reg.Lookup("double_it").Info

	n := 64 << 10 // 512 KiB vector: chunked both directions
	v := bigVec(n)
	vals := []idl.Value{int64(n), v, nil}
	m, err := protocol.EncodeCallRequestChunks(info,
		&protocol.CallRequest{Name: "double_it", Args: vals}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("request not chunked")
	}
	rt, fb, bulk, err := sess.RoundtripBulk(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	if rt != protocol.MsgCallOK {
		t.Fatalf("reply %v", rt)
	}
	if bulk == nil {
		t.Fatal("large reply was not chunked")
	}
	p := bulk.Head()
	_, out, err := protocol.DecodeCallReplyBulk(info, vals, p, bulk)
	if err != nil {
		t.Fatal(err)
	}
	w := out[2].([]float64)
	for i := range v {
		if w[i] != 2*v[i] {
			t.Fatalf("result[%d] = %g, want %g", i, w[i], 2*v[i])
		}
	}
	if gauge := protocol.OpenBulkReassemblies(); gauge != 0 {
		t.Fatalf("open reassemblies after round trip = %d", gauge)
	}
}

// TestMuxBulkReplyDisabled: a negative threshold keeps replies
// monolithic while chunked requests are still accepted.
func TestMuxBulkReplyDisabled(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 2, BulkThreshold: -1}, reg)
	defer s.Close()
	sess := muxSession(t, s)
	info := reg.Lookup("double_it").Info

	n := 32 << 10
	v := bigVec(n)
	vals := []idl.Value{int64(n), v, nil}
	m, err := protocol.EncodeCallRequestChunks(info,
		&protocol.CallRequest{Name: "double_it", Args: vals}, 1024)
	if err != nil || m == nil {
		t.Fatalf("encode: %v %v", m, err)
	}
	rt, fb, bulk, err := sess.RoundtripBulk(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	if rt != protocol.MsgCallOK {
		t.Fatalf("reply %v", rt)
	}
	if bulk != nil {
		t.Fatal("reply chunked despite disabled threshold")
	}
	_, out, err := protocol.DecodeCallReply(info, vals, fb.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if w := out[2].([]float64); w[1] != 2*v[1] {
		t.Fatalf("result %g", w[1])
	}
}

// TestMuxBulkSubmitFetch: a chunked two-phase submit, with the stored
// result streaming back chunked on fetch.
func TestMuxBulkSubmitFetch(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 2, BulkThreshold: 1024}, reg)
	defer s.Close()
	sess := muxSession(t, s)
	info := reg.Lookup("double_it").Info

	n := 48 << 10
	v := bigVec(n)
	vals := []idl.Value{int64(n), v, nil}
	m, _, err := protocol.EncodeRequest(info, protocol.MsgSubmit,
		&protocol.CallRequest{Name: "double_it", Args: vals}, 42, protocol.NewShape(false, 1024, nil, nil))
	if err != nil || m == nil {
		t.Fatalf("encode: %v %v", m, err)
	}
	rt, fb, _, err := sess.RoundtripBulk(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if rt != protocol.MsgSubmitOK {
		t.Fatalf("submit reply %v", rt)
	}
	sr, err := protocol.DecodeSubmitReply(fb.Payload())
	fb.Release()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		fr := protocol.FetchRequest{JobID: sr.JobID, Wait: false}
		rt, fb, bulk, err := sess.Roundtrip(context.Background(), protocol.MsgFetch, fr.EncodeBuf())
		if err != nil {
			t.Fatal(err)
		}
		if rt == protocol.MsgError {
			er, derr := protocol.DecodeErrorReply(fb.Payload())
			fb.Release()
			if derr != nil || er.Code != protocol.CodeNotReady {
				t.Fatalf("fetch error: %v %+v", derr, er)
			}
			if time.Now().After(deadline) {
				t.Fatal("job never became ready")
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if rt != protocol.MsgFetchOK {
			t.Fatalf("fetch reply %v", rt)
		}
		if bulk == nil {
			t.Fatal("large fetch reply was not chunked")
		}
		_, out, err := protocol.DecodeCallReply(info, vals, bulk.Head())
		fb.Release()
		if err != nil {
			t.Fatal(err)
		}
		w := out[2].([]float64)
		if w[7] != 2*v[7] {
			t.Fatalf("fetched result %g, want %g", w[7], 2*v[7])
		}
		break
	}
}

// TestMuxBulkMixedPipeline: small pings stay live while several large
// chunked calls stream in both directions on one connection — the
// interleaved writer must not let a 512 KiB reply starve them, and
// every reply must match its own request.
func TestMuxBulkMixedPipeline(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 4, BulkThreshold: 1024}, reg)
	defer s.Close()
	sess := muxSession(t, s)
	info := reg.Lookup("double_it").Info

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 3; i++ {
		salt := float64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 64 << 10
			v := make([]float64, n)
			for k := range v {
				v[k] = salt * float64(k%17)
			}
			vals := []idl.Value{int64(n), v, nil}
			m, err := protocol.EncodeCallRequestChunks(info,
				&protocol.CallRequest{Name: "double_it", Args: vals}, 1024)
			if err != nil || m == nil {
				errs <- err
				return
			}
			rt, fb, bulk, err := sess.RoundtripBulk(context.Background(), m)
			if err != nil {
				errs <- err
				return
			}
			defer fb.Release()
			if rt != protocol.MsgCallOK || bulk == nil {
				errs <- errStr("mixed: bulk call reply " + rt.String())
				return
			}
			_, out, err := protocol.DecodeCallReplyBulk(info, vals, bulk.Head(), bulk)
			if err != nil {
				errs <- err
				return
			}
			w := out[2].([]float64)
			for k := range v {
				if w[k] != 2*v[k] {
					errs <- errStr("mixed: cross-Seq corruption in bulk result")
					return
				}
			}
		}()
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				rt, fb, _, err := sess.Roundtrip(context.Background(), protocol.MsgPing, emptyReq())
				if err != nil {
					errs <- err
					return
				}
				fb.Release()
				if rt != protocol.MsgPong {
					errs <- errStr("mixed: ping reply " + rt.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if gauge := protocol.OpenBulkReassemblies(); gauge != 0 {
		t.Fatalf("open reassemblies after mixed pipeline = %d", gauge)
	}
}

// TestMuxBulkConnCutMidReassembly severs the connection after a bulk
// begin but before its chunks: the server's reassembler must release
// the half-assembled buffer on teardown (the leak the chaos tests
// also guard).
func TestMuxBulkConnCutMidReassembly(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(sc)
	}()
	hello, err := mux.NegotiateHello(cc, 0)
	if err != nil || hello.Version != protocol.MuxVersionCache {
		t.Fatalf("negotiate: %d %v", hello.Version, err)
	}
	// Hand-write a begin for a 1 MiB message, one chunk, then cut.
	m := protocol.RawBulkMsg(protocol.MsgCall, make([]byte, 1<<20))
	fb := m.EncodeBegin()
	if err := protocol.WriteMuxFrameBuf(cc, protocol.MsgBulkBegin, 1, fb); err != nil {
		t.Fatal(err)
	}
	fb.Release()
	cur := m.Cursor()
	if _, err := cur.WriteChunk(cc, 1, 64<<10); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	<-done
	m.Release()
	if gauge := protocol.OpenBulkReassemblies(); gauge != 0 {
		t.Fatalf("server leaked a half-assembled bulk buffer: gauge = %d", gauge)
	}
}

type errStr string

func (e errStr) Error() string { return string(e) }
