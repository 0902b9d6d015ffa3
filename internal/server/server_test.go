package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/protocol"
	"ninf/internal/server/sched"
)

// testRegistry builds a registry with simple routines driven entirely
// through channels so tests control execution timing.
func testRegistry(t *testing.T) (*Registry, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	reg := NewRegistry()
	err := reg.RegisterIDL(`
Define double_it(mode_in int n, mode_in double v[n], mode_out double w[n])
    Complexity n
    Calls "go" double_it(n, v, w);
Define block(mode_in int n)
    Calls "go" block(n);
Define boom(mode_in int n)
    Calls "go" boom(n);
Define panics(mode_in int n)
    Calls "go" panics(n);
`, map[string]Handler{
		"double_it": func(_ context.Context, args []idl.Value) error {
			v := args[1].([]float64)
			w := args[2].([]float64)
			for i := range v {
				w[i] = 2 * v[i]
			}
			return nil
		},
		"block": func(ctx context.Context, _ []idl.Value) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		"boom": func(_ context.Context, _ []idl.Value) error {
			return errors.New("deliberate failure")
		},
		"panics": func(_ context.Context, _ []idl.Value) error {
			panic("deliberate panic")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, release
}

// pipeConn returns a connected client conn served by s.
func pipeConn(t *testing.T, s *Server) net.Conn {
	t.Helper()
	cc, sc := net.Pipe()
	go s.ServeConn(sc)
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return cc
}

func call(t *testing.T, conn net.Conn, typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte) {
	t.Helper()
	if err := protocol.WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	rt, rp, err := protocol.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt, rp
}

// callNB is the goroutine-safe variant of call: it reports failures as
// errors instead of t.Fatal.
func callNB(conn net.Conn, typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte, error) {
	if err := protocol.WriteFrame(conn, typ, payload); err != nil {
		return 0, nil, err
	}
	return protocol.ReadFrame(conn, 0)
}

func encodeCall(t *testing.T, reg *Registry, name string, args ...idl.Value) []byte {
	t.Helper()
	ex := reg.Lookup(name)
	if ex == nil {
		t.Fatalf("no routine %q", name)
	}
	p, err := protocol.EncodeCallRequest(ex.Info, &protocol.CallRequest{Name: name, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// submitPayload prefixes a call payload with the submit idempotency
// key the MsgSubmit wire format carries.
func submitPayload(key uint64, call []byte) []byte {
	p := make([]byte, 8+len(call))
	binary.BigEndian.PutUint64(p, key)
	copy(p[8:], call)
	return p
}

func TestPingListStatsInterface(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{Hostname: "unit"}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	if typ, _ := call(t, conn, protocol.MsgPing, nil); typ != protocol.MsgPong {
		t.Errorf("ping → %v", typ)
	}

	typ, p := call(t, conn, protocol.MsgList, nil)
	if typ != protocol.MsgListReply {
		t.Fatalf("list → %v", typ)
	}
	lr, err := protocol.DecodeListReply(p)
	if err != nil || len(lr.Names) != 4 {
		t.Errorf("list = %v, %v", lr.Names, err)
	}

	typ, p = call(t, conn, protocol.MsgStats, nil)
	if typ != protocol.MsgStatsOK {
		t.Fatalf("stats → %v", typ)
	}
	st, err := protocol.DecodeStats(p)
	if err != nil || st.Hostname != "unit" || st.PEs != 1 {
		t.Errorf("stats = %+v, %v", st, err)
	}

	req := protocol.InterfaceRequest{Name: "double_it"}
	typ, p = call(t, conn, protocol.MsgInterface, req.Encode())
	if typ != protocol.MsgInterfaceOK {
		t.Fatalf("interface → %v", typ)
	}
	info, err := protocol.DecodeInterfaceReply(p)
	if err != nil || info.Name != "double_it" {
		t.Errorf("interface = %+v, %v", info, err)
	}

	// Unknown routine.
	req = protocol.InterfaceRequest{Name: "nope"}
	typ, p = call(t, conn, protocol.MsgInterface, req.Encode())
	if typ != protocol.MsgError {
		t.Fatalf("unknown interface → %v", typ)
	}
	er, _ := protocol.DecodeErrorReply(p)
	if er.Code != protocol.CodeUnknownRoutine {
		t.Errorf("code = %d", er.Code)
	}
}

func TestBlockingCall(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	payload := encodeCall(t, reg, "double_it", int64(3), []float64{1, 2, 3}, nil)
	typ, p := call(t, conn, protocol.MsgCall, payload)
	if typ != protocol.MsgCallOK {
		t.Fatalf("call → %v: %s", typ, p)
	}
	info := reg.Lookup("double_it").Info
	tm, out, err := protocol.DecodeCallReply(info, []idl.Value{int64(3), []float64{1, 2, 3}, nil}, p)
	if err != nil {
		t.Fatal(err)
	}
	w := out[2].([]float64)
	if w[0] != 2 || w[1] != 4 || w[2] != 6 {
		t.Errorf("w = %v", w)
	}
	if tm.Enqueue == 0 || tm.Dequeue < tm.Enqueue || tm.Complete < tm.Dequeue {
		t.Errorf("timings not monotone: %+v", tm)
	}
}

func TestCallErrors(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	// Execution failure.
	typ, p := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "boom", int64(1)))
	if typ != protocol.MsgError {
		t.Fatalf("boom → %v", typ)
	}
	er, _ := protocol.DecodeErrorReply(p)
	if er.Code != protocol.CodeExecFailed {
		t.Errorf("code = %d", er.Code)
	}

	// Panic recovery: server must answer and stay alive.
	typ, p = call(t, conn, protocol.MsgCall, encodeCall(t, reg, "panics", int64(1)))
	if typ != protocol.MsgError {
		t.Fatalf("panic → %v", typ)
	}
	er, _ = protocol.DecodeErrorReply(p)
	if er.Code != protocol.CodeExecFailed {
		t.Errorf("code = %d", er.Code)
	}
	if typ, _ := call(t, conn, protocol.MsgPing, nil); typ != protocol.MsgPong {
		t.Error("server dead after handler panic")
	}
}

func TestFaultInjection(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	defer s.Close()
	conn := pipeConn(t, s)
	s.FailNextCalls(1)
	typ, _ := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "double_it", int64(1), []float64{1}, nil))
	if typ != protocol.MsgError {
		t.Fatalf("injected fault → %v", typ)
	}
	typ, _ = call(t, conn, protocol.MsgCall, encodeCall(t, reg, "double_it", int64(1), []float64{1}, nil))
	if typ != protocol.MsgCallOK {
		t.Errorf("second call → %v", typ)
	}
}

func TestTaskParallelRunsConcurrently(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 4, Mode: TaskParallel}, reg)
	defer s.Close()

	var wg sync.WaitGroup
	results := make(chan protocol.MsgType, 4)
	for i := 0; i < 4; i++ {
		conn := pipeConn(t, s)
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			typ, _, _ := callNB(c, protocol.MsgCall, encodeCall(t, reg, "block", int64(1)))
			results <- typ
		}(conn)
	}
	// All four must be running concurrently (1 PE each on 4 PEs).
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 4
	}, "4 concurrent tasks")
	close(release)
	wg.Wait()
	for i := 0; i < 4; i++ {
		if typ := <-results; typ != protocol.MsgCallOK {
			t.Errorf("call %d → %v", i, typ)
		}
	}
}

func TestDataParallelSerializes(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 4, Mode: DataParallel}, reg)
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		conn := pipeConn(t, s)
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			callNB(c, protocol.MsgCall, encodeCall(t, reg, "block", int64(1)))
		}(conn)
	}
	// Only one job may run at a time; the others queue.
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 1 && st.Queued == 2
	}, "1 running, 2 queued")
	release <- struct{}{} // finish first
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 1 && st.Queued == 1
	}, "second dispatched")
	close(release)
	wg.Wait()
}

func TestMaxQueueOverload(t *testing.T) {
	reg, release := testRegistry(t)
	defer close(release)
	s := New(Config{PEs: 1, MaxQueue: 1}, reg)
	defer s.Close()

	// First call occupies the PE; it dequeues immediately so the
	// queue is empty again.
	c1 := pipeConn(t, s)
	p1 := encodeCall(t, reg, "block", int64(1))
	go callNB(c1, protocol.MsgCall, p1)
	waitFor(t, func() bool { return s.Stats().Running == 1 }, "first running")

	// Second waits in queue (MaxQueue=1 allows it)…
	c2 := pipeConn(t, s)
	p2 := encodeCall(t, reg, "block", int64(1))
	go callNB(c2, protocol.MsgCall, p2)
	waitFor(t, func() bool { return s.Stats().Queued == 1 }, "second queued")

	// …third must be rejected.
	c3 := pipeConn(t, s)
	typ, p := call(t, c3, protocol.MsgCall, encodeCall(t, reg, "block", int64(1)))
	if typ != protocol.MsgError {
		t.Fatalf("third → %v", typ)
	}
	er, _ := protocol.DecodeErrorReply(p)
	if er.Code != protocol.CodeOverloaded {
		t.Errorf("code = %d, want overloaded", er.Code)
	}
}

func TestTwoPhaseSubmitFetch(t *testing.T) {
	reg, release := testRegistry(t)
	clk := newClock()
	s := newServer(Config{}, reg, clk.now)
	defer s.Close()
	conn := pipeConn(t, s)

	typ, p := call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "block", int64(1))))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(p)
	if err != nil {
		t.Fatal(err)
	}

	// Immediate fetch: not ready.
	fr := protocol.FetchRequest{JobID: sr.JobID}
	typ, p = call(t, conn, protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgError {
		t.Fatalf("early fetch → %v", typ)
	}
	if er, _ := protocol.DecodeErrorReply(p); er.Code != protocol.CodeNotReady {
		t.Errorf("code = %d, want not-ready", er.Code)
	}

	close(release)
	fr.Wait = true
	typ, _ = call(t, conn, protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgFetchOK {
		t.Fatalf("fetch → %v", typ)
	}

	// Delivery does not consume the job on the spot: it lingers
	// re-fetchable for deliveredTTL, covering a reply lost in transit
	// after a locally successful write.
	typ, _ = call(t, conn, protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgFetchOK {
		t.Fatalf("refetch during delivered linger → %v, want the retained result", typ)
	}

	// Once the linger expires the job is gone for good: the next
	// two-phase exchange drops it.
	clk.advance(time.Hour)
	typ, p = call(t, conn, protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgError {
		t.Fatalf("refetch after linger → %v", typ)
	}
	if er, _ := protocol.DecodeErrorReply(p); er.Code != protocol.CodeUnknownJob {
		t.Errorf("code = %d, want unknown job", er.Code)
	}
}

// TestSubmitIdempotencyKeyDedupe proves the exactly-once admission
// contract of the two-phase protocol: re-sending a submission under
// the same idempotency key (the client's transport-fault retry) is
// answered with the already-admitted job, not executed again — through
// the delivered linger too, so a client whose FetchOK was lost and who
// re-submits under its original key re-attaches instead of executing
// the work a second time. Only once the linger expires is the key
// released for a fresh admission.
func TestSubmitIdempotencyKeyDedupe(t *testing.T) {
	reg, _ := testRegistry(t)
	clk := newClock()
	s := newServer(Config{}, reg, clk.now)
	defer s.Close()
	conn := pipeConn(t, s)

	p := submitPayload(77, encodeCall(t, reg, "double_it", int64(1), []float64{3}, nil))
	typ, rp := call(t, conn, protocol.MsgSubmit, p)
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr1, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}

	// The retry re-sends the identical payload: same job, no second
	// admission.
	typ, rp = call(t, conn, protocol.MsgSubmit, p)
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("duplicate submit → %v", typ)
	}
	sr2, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	if sr1.JobID != sr2.JobID {
		t.Fatalf("duplicate submit admitted a new job: %d then %d", sr1.JobID, sr2.JobID)
	}
	if total := s.Stats().TotalCalls; total != 1 {
		t.Fatalf("server admitted %d calls for one deduped submission", total)
	}

	fr := protocol.FetchRequest{JobID: sr1.JobID, Wait: true}
	if typ, _ = call(t, conn, protocol.MsgFetch, fr.Encode()); typ != protocol.MsgFetchOK {
		t.Fatalf("fetch → %v", typ)
	}

	// During the delivered linger the key still dedupes: a re-submit
	// (the lost-FetchOK recovery) re-attaches to the delivered job.
	typ, rp = call(t, conn, protocol.MsgSubmit, p)
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("post-fetch submit → %v", typ)
	}
	sr3, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	if sr3.JobID != sr1.JobID {
		t.Fatalf("re-submit during delivered linger admitted a new job: %d, want %d", sr3.JobID, sr1.JobID)
	}
	if total := s.Stats().TotalCalls; total != 1 {
		t.Fatalf("lost-reply re-submit executed again: %d total calls", total)
	}

	// Linger expiry releases the key: past it, the same key admits fresh.
	clk.advance(time.Hour)
	typ, rp = call(t, conn, protocol.MsgSubmit, p)
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("post-expiry submit → %v", typ)
	}
	sr4, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	if sr4.JobID == sr1.JobID {
		t.Fatalf("key 77 still pinned to expired job %d", sr1.JobID)
	}
}

// TestFetchReplyLostKeepsJob proves the at-most-once window the
// delete-before-reply ordering used to open is closed: a fetch whose
// reply is lost in transit leaves the job in the table, so the
// client's retried fetch re-reads the retained result instead of
// getting CodeUnknownJob.
func TestFetchReplyLostKeepsJob(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	defer s.Close()

	conn := pipeConn(t, s)
	typ, rp := call(t, conn, protocol.MsgSubmit, submitPayload(9, encodeCall(t, reg, "double_it", int64(1), []float64{2}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 0 && st.Queued == 0
	}, "job done")

	// Deliver the fetch request, then kill the connection before the
	// reply can be read: net.Pipe writes are synchronous, so the reply
	// write is guaranteed to fail.
	fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
	if err := protocol.WriteFrame(conn, protocol.MsgFetch, fr.Encode()); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The retried fetch on a fresh connection must still find the job
	// and its retained result.
	conn2 := pipeConn(t, s)
	typ, _ = call(t, conn2, protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgFetchOK {
		t.Fatalf("refetch after lost reply → %v, want the retained result", typ)
	}
}

func TestExpireJobs(t *testing.T) {
	reg, _ := testRegistry(t)
	clk := newClock()
	s := newServer(Config{}, reg, clk.now) // results live jobTTL; the clock below moves past it
	defer s.Close()
	conn := pipeConn(t, s)

	typ, p := call(t, conn, protocol.MsgSubmit, submitPayload(2, encodeCall(t, reg, "double_it", int64(1), []float64{1}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(p)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Running == 0 && s.Stats().Queued == 0 }, "job done")
	clk.advance(time.Hour)
	fr := protocol.FetchRequest{JobID: sr.JobID}
	typ, p = call(t, conn, protocol.MsgFetch, fr.Encode())
	if er, _ := protocol.DecodeErrorReply(p); typ != protocol.MsgError || er.Code != protocol.CodeUnknownJob {
		t.Errorf("fetch of the never-fetched job past jobTTL → %v %+v, want unknown job", typ, er)
	}
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	reg, release := testRegistry(t)
	defer close(release)
	s := New(Config{PEs: 1}, reg)

	c1 := pipeConn(t, s)
	errs := make(chan protocol.MsgType, 2)
	pb := encodeCall(t, reg, "block", int64(1))
	go func() {
		typ, _, _ := callNB(c1, protocol.MsgCall, pb)
		errs <- typ
	}()
	waitFor(t, func() bool { return s.Stats().Running == 1 }, "first running")

	c2 := pipeConn(t, s)
	go func() {
		typ, _, _ := callNB(c2, protocol.MsgCall, pb)
		errs <- typ
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 }, "second queued")

	go s.Close() // cancels the running ctx, fails the queued job
	for i := 0; i < 2; i++ {
		select {
		case typ := <-errs:
			if typ != protocol.MsgError {
				t.Errorf("call %d → %v, want error after Close", i, typ)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout waiting for calls to fail")
		}
	}
}

func TestServeOnTCP(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	typ, _ := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "double_it", int64(2), []float64{1, 5}, nil))
	if typ != protocol.MsgCallOK {
		t.Errorf("tcp call → %v", typ)
	}
}

func TestSJFPolicyOrdersByComplexity(t *testing.T) {
	// One PE, SJF: among queued jobs the cheap ones run first.
	reg := NewRegistry()
	var mu sync.Mutex
	var order []int64
	release := make(chan struct{})
	err := reg.RegisterIDL(`
Define gate(mode_in int n) Calls "go" gate(n);
Define work(mode_in int n) Complexity n Calls "go" work(n);
`, map[string]Handler{
		"gate": func(ctx context.Context, _ []idl.Value) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		"work": func(_ context.Context, args []idl.Value) error {
			mu.Lock()
			order = append(order, args[0].(int64))
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{PEs: 1, Policy: sched.SJF{}}, reg)
	defer s.Close()

	gateConn := pipeConn(t, s)
	pg := encodeCall(t, reg, "gate", int64(0))
	go callNB(gateConn, protocol.MsgCall, pg)
	waitFor(t, func() bool { return s.Stats().Running == 1 }, "gate running")

	var wg sync.WaitGroup
	for _, n := range []int64{900, 100, 500} {
		conn := pipeConn(t, s)
		wg.Add(1)
		pw := encodeCall(t, reg, "work", n)
		go func(c net.Conn, p []byte) {
			defer wg.Done()
			callNB(c, protocol.MsgCall, p)
		}(conn, pw)
		// Deterministic arrival order.
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return s.Stats().Queued >= 1
		}, "queued")
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, func() bool { return s.Stats().Queued == 3 }, "3 queued")
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := []int64{100, 500, 900}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SJF order = %v, want %v", order, want)
		}
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(nil); err == nil {
		t.Error("nil executable accepted")
	}
	info, err := idl.ParseOne(`Define f(mode_in int n) Calls "go" f(n);`)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Executable{Info: info}); err == nil {
		t.Error("nil handler accepted")
	}
	h := func(context.Context, []idl.Value) error { return nil }
	if err := reg.Register(&Executable{Info: info, Handler: h, PEs: -1}); err == nil {
		t.Error("negative PEs accepted")
	}
	if err := reg.Register(&Executable{Info: info, Handler: h}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Executable{Info: info, Handler: h}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if got := reg.Lookup("f"); got == nil {
		t.Error("lookup failed")
	}
	if got := reg.SortedNames(); len(got) != 1 || got[0] != "f" {
		t.Errorf("names = %v", got)
	}
}

func TestRegisterIDLMismatch(t *testing.T) {
	reg := NewRegistry()
	h := func(context.Context, []idl.Value) error { return nil }
	err := reg.RegisterIDL(`Define f(mode_in int n) Calls "go" f(n);`,
		map[string]Handler{"g": h})
	if err == nil {
		t.Error("handler/IDL name mismatch accepted")
	}
	err = reg.RegisterIDL(`Define f(mode_in int n) Calls "go" f(n);`,
		map[string]Handler{"f": h, "g": h})
	if err == nil {
		t.Error("handler count mismatch accepted")
	}
}

func TestPEOverrideClamped(t *testing.T) {
	reg := NewRegistry()
	info, err := idl.ParseOne(`Define wide(mode_in int n) Calls "go" wide(n);`)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Executable{
		Info:    info,
		Handler: func(context.Context, []idl.Value) error { return nil },
		PEs:     16,
	}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{PEs: 4}, reg)
	defer s.Close()
	conn := pipeConn(t, s)
	typ, _ := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "wide", int64(1)))
	if typ != protocol.MsgCallOK {
		t.Errorf("over-wide job did not run: %v", typ)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestExecModeString(t *testing.T) {
	if TaskParallel.String() != "task-parallel" || DataParallel.String() != "data-parallel" {
		t.Error("mode names wrong")
	}
	if s := ExecMode(9).String(); s == "" {
		t.Error("unknown mode empty")
	}
	_ = fmt.Sprintf("%v %v", TaskParallel, DataParallel)
}
