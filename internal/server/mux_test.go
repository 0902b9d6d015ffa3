package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/mux"
	"ninf/internal/protocol"
)

// muxSession negotiates a mux session against a served pipe conn.
func muxSession(t *testing.T, s *Server) *mux.Session {
	t.Helper()
	cc, sc := net.Pipe()
	go s.ServeConn(sc)
	t.Cleanup(func() { sc.Close() })
	return muxSessionOn(t, cc)
}

// muxSessionOn negotiates a mux session over the client end of a conn
// some server is already serving.
func muxSessionOn(t *testing.T, cc net.Conn) *mux.Session {
	t.Helper()
	hello, err := mux.NegotiateHello(cc, 0)
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	sess := mux.Open(cc, 0, hello.Flags&protocol.HelloFlagArgCache != 0)
	t.Cleanup(func() { sess.Close() })
	return sess
}

func emptyReq() *protocol.Buffer { return protocol.AcquireBuffer(0) }

func callReq(t *testing.T, info *idl.Info, name string, vals []idl.Value) *protocol.Buffer {
	t.Helper()
	fb, err := protocol.EncodeCallRequestBuf(info, &protocol.CallRequest{Name: name, Args: vals})
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

func TestMuxUpgradeAndPing(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 2}, reg)
	defer s.Close()
	sess := muxSession(t, s)
	rt, fb, _, err := sess.Roundtrip(context.Background(), protocol.MsgPing, emptyReq())
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Release()
	if rt != protocol.MsgPong {
		t.Fatalf("ping over mux: got %v", rt)
	}
}

// TestMuxNoHeadOfLineBlocking pins the tentpole property: with a
// blocking call in flight on the connection, a ping pipelined behind
// it must be answered while the call still runs — the lockstep loop
// would park on the call and starve it.
func TestMuxNoHeadOfLineBlocking(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 2}, reg)
	defer s.Close()
	sess := muxSession(t, s)

	blockInfo := reg.Lookup("block").Info
	callDone := make(chan error, 1)
	go func() {
		rt, fb, _, err := sess.Roundtrip(context.Background(), protocol.MsgCall,
			callReq(t, blockInfo, "block", []idl.Value{int64(1)}))
		if err == nil {
			fb.Release()
			if rt != protocol.MsgCallOK {
				err = errors.New("block reply " + rt.String())
			}
		}
		callDone <- err
	}()

	// The ping must complete while the call is parked on `release`.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rt, fb, _, err := sess.Roundtrip(ctx, protocol.MsgPing, emptyReq())
	if err != nil {
		t.Fatalf("ping behind a blocking call: %v", err)
	}
	fb.Release()
	if rt != protocol.MsgPong {
		t.Fatalf("ping behind a blocking call: got %v", rt)
	}
	select {
	case err := <-callDone:
		t.Fatalf("blocking call finished before release: %v", err)
	default:
	}
	close(release)
	if err := <-callDone; err != nil {
		t.Fatal(err)
	}
}

// TestMuxConcurrentCallsDemux runs many concurrent calls with distinct
// arguments over one session and checks each reply against its own
// request — a demux or shared-writer bug would cross the streams.
func TestMuxConcurrentCallsDemux(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 4}, reg)
	defer s.Close()
	sess := muxSession(t, s)
	info := reg.Lookup("double_it").Info

	const callers = 24
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			n := 4
			v := make([]float64, n)
			for k := range v {
				v[k] = float64(i*100 + k)
			}
			vals := []idl.Value{int64(n), v, nil}
			rt, fb, _, err := sess.Roundtrip(context.Background(), protocol.MsgCall,
				callReq(t, info, "double_it", vals))
			if err != nil {
				errs <- err
				return
			}
			defer fb.Release()
			if rt != protocol.MsgCallOK {
				errs <- errors.New("reply " + rt.String())
				return
			}
			_, out, err := protocol.DecodeCallReply(info, vals, fb.Payload())
			if err != nil {
				errs <- err
				return
			}
			w := out[2].([]float64)
			for k := range v {
				if w[k] != 2*v[k] {
					errs <- errors.New("cross-Seq corruption: wrong result payload")
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxDisabledAnswersLikeLegacy: a DisableMux server must answer
// Hello exactly as a pre-mux binary would, so new clients fall back.
func TestMuxDisabledAnswersLikeLegacy(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 1, DisableMux: true}, reg)
	defer s.Close()
	cc, sc := net.Pipe()
	defer cc.Close()
	go s.ServeConn(sc)
	defer sc.Close()
	if _, err := mux.NegotiateHello(cc, 0); !errors.Is(err, mux.ErrLegacy) {
		t.Fatalf("negotiate against DisableMux server = %v, want ErrLegacy", err)
	}
	// The connection must still carry lockstep traffic afterwards.
	if err := protocol.WriteFrame(cc, protocol.MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, err := protocol.ReadFrame(cc, 0)
	if err != nil || typ != protocol.MsgPong {
		t.Fatalf("lockstep ping after refused hello: %v %v", typ, err)
	}
}

// TestHelloAnswers holds the server's side of the one negotiation. A
// Hello offering less than MuxVersionCache gets exactly the MsgError a
// DisableMux server gives, and the connection stays a lockstep one. Any
// offer from MuxVersionCache up gets MuxVersionCache, with the cache
// grant (HelloFlagArgCache) set exactly when the server runs a cache.
func TestHelloAnswers(t *testing.T) {
	reg, _ := testRegistry(t)
	hello := func(cfg Config, offer uint32) (protocol.MsgType, []byte, net.Conn) {
		cfg.PEs = 1
		s := New(cfg, reg)
		t.Cleanup(func() { s.Close() })
		conn := pipeConn(t, s)
		req := protocol.HelloRequest{MaxVersion: offer}
		typ, rp := call(t, conn, protocol.MsgHello, req.Encode())
		return typ, rp, conn
	}
	refusal, refused, _ := hello(Config{DisableMux: true}, protocol.MuxVersionCache)
	if refusal != protocol.MsgError {
		t.Fatalf("DisableMux answered Hello with %v", refusal)
	}
	for _, offer := range []uint32{protocol.MuxVersion, protocol.MuxVersionBulk} {
		typ, rp, conn := hello(Config{CacheBudget: 1 << 20}, offer)
		if typ != refusal || !bytes.Equal(rp, refused) {
			t.Errorf("offer %d: %v %x, want DisableMux's %v %x", offer, typ, rp, refusal, refused)
			continue // an accepted Hello left the connection in mux framing
		}
		if typ, _ := call(t, conn, protocol.MsgPing, nil); typ != protocol.MsgPong {
			t.Errorf("offer %d: lockstep ping after the refusal got %v", offer, typ)
		}
	}
	for _, offer := range []uint32{protocol.MuxVersionCache, 0xffffffff} {
		for _, budget := range []int64{0, 1 << 20} {
			typ, rp, _ := hello(Config{CacheBudget: budget}, offer)
			rep, err := protocol.DecodeHelloReply(rp)
			granted := rep.Flags&protocol.HelloFlagArgCache != 0
			if typ != protocol.MsgHelloOK || err != nil || rep.Version != protocol.MuxVersionCache || granted != (budget > 0) {
				t.Errorf("offer %d, cache budget %d: %v %+v %v; want version %d, grant %t", offer, budget, typ, rep, err, protocol.MuxVersionCache, budget > 0)
			}
		}
	}
}

// TestMuxFetchLostReplyRefetchable: a mux fetch whose session dies
// before the reply is read must leave the job fetchable on a fresh
// session (the lost-reply guarantee, satellite of PR 3).
func TestMuxSubmitFetch(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 2}, reg)
	defer s.Close()
	sess := muxSession(t, s)
	info := reg.Lookup("double_it").Info

	n := 3
	v := []float64{1, 2, 3}
	vals := []idl.Value{int64(n), v, nil}
	req, err := protocol.EncodeSubmitRequestBuf(info, &protocol.CallRequest{Name: "double_it", Args: vals}, 77)
	if err != nil {
		t.Fatal(err)
	}
	rt, fb, _, err := sess.Roundtrip(context.Background(), protocol.MsgSubmit, req)
	if err != nil {
		t.Fatal(err)
	}
	if rt != protocol.MsgSubmitOK {
		t.Fatalf("submit over mux: %v", rt)
	}
	sr, err := protocol.DecodeSubmitReply(fb.Payload())
	fb.Release()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		fr := protocol.FetchRequest{JobID: sr.JobID, Wait: false}
		rt, fb, _, err := sess.Roundtrip(context.Background(), protocol.MsgFetch, fr.EncodeBuf())
		if err != nil {
			t.Fatal(err)
		}
		if rt == protocol.MsgError {
			er, derr := protocol.DecodeErrorReply(fb.Payload())
			fb.Release()
			if derr != nil {
				t.Fatal(derr)
			}
			if er.Code != protocol.CodeNotReady {
				t.Fatalf("fetch error %d: %s", er.Code, er.Detail)
			}
			if time.Now().After(deadline) {
				t.Fatal("job never became ready")
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if rt != protocol.MsgFetchOK {
			t.Fatalf("fetch over mux: %v", rt)
		}
		_, out, err := protocol.DecodeCallReply(info, vals, fb.Payload())
		fb.Release()
		if err != nil {
			t.Fatal(err)
		}
		w := out[2].([]float64)
		if w[0] != 2 || w[1] != 4 || w[2] != 6 {
			t.Fatalf("fetched result %v", w)
		}
		break
	}
}
