package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/mux"
	"ninf/internal/protocol"
)

// The ownership tests: a task's pooled argument arrays go back to the
// pool exactly once, and only when nothing reads them any more. The
// release hook poisons every recycled array with NaNs, so a reply
// encoded or streamed from released memory fails its result check, and
// counts the releases, so "not before the writer settled" and "not at
// all, the cache holds it" are observable.

const poisonWord = 0x7ff8dead7ff8dead // NaN as a float64

// vecN doubles fill the 8 KiB size class: above the pool's floor.
const vecN = 1024

// vec_op's modes.
const (
	opDouble  = iota // w = 2v
	opFail           // return an error
	opPanic          // panic
	opReplace        // put a slice of the handler's own in args[3]
	opCheck          // fail unless w arrived zeroed, then w = 2v
)

// poisonReleases installs the poisoning, counting release hook for the
// test's duration and returns the counter.
func poisonReleases(t *testing.T) *atomic.Int64 {
	t.Helper()
	released := new(atomic.Int64)
	protocol.SetArrayReleaseHook(func(mem []uint64) {
		for i := range mem {
			mem[i] = poisonWord
		}
		released.Add(1)
	})
	t.Cleanup(func() { protocol.SetArrayReleaseHook(nil) })
	return released
}

// arrayRegistry registers vec_op and the blocking routine the queueing
// tests hold the PE with. replaced is what opReplace puts in args[3].
func arrayRegistry(t *testing.T) (reg *Registry, release chan struct{}, replaced []float64) {
	t.Helper()
	release = make(chan struct{})
	replaced = make([]float64, vecN)
	reg = NewRegistry()
	err := reg.RegisterIDL(`
Define vec_op(mode_in int n, mode_in int op, mode_in double v[n], mode_out double w[n])
    Calls "go" vec_op(n, op, v, w);
Define block(mode_in int n)
    Calls "go" block(n);
`, map[string]Handler{
		"vec_op": func(_ context.Context, args []idl.Value) error {
			v, w := args[2].([]float64), args[3].([]float64)
			switch args[1].(int64) {
			case opFail:
				return errors.New("deliberate failure")
			case opPanic:
				panic("deliberate panic")
			case opReplace:
				w = replaced
				args[3] = w
			case opCheck:
				for i, x := range w {
					if x != 0 {
						return fmt.Errorf("out-array element %d arrived as %v, not zeroed", i, x)
					}
				}
			}
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, release, replaced
}

func vecOpArgs(op int64, seed float64) []idl.Value {
	v := make([]float64, vecN)
	for i := range v {
		v[i] = seed + float64(i)
	}
	return []idl.Value{int64(vecN), op, v, nil}
}

// checkDoubled decodes a vec_op reply and holds it to w = 2v; a NaN in
// it is poisoned memory that was read after its release.
func checkDoubled(t *testing.T, info *idl.Info, args []idl.Value, typ protocol.MsgType, payload []byte, bulk *protocol.BulkInfo) {
	t.Helper()
	if typ != protocol.MsgCallOK && typ != protocol.MsgFetchOK {
		er, _ := protocol.DecodeErrorReply(payload)
		t.Fatalf("reply %v: %s", typ, er.Detail)
	}
	_, out, err := protocol.DecodeCallReplyBulk(info, args, payload, bulk)
	if err != nil {
		t.Fatal(err)
	}
	v, w := args[2].([]float64), out[3].([]float64)
	for i := range v {
		if w[i] != 2*v[i] {
			t.Fatalf("w[%d] = %v, want %v (NaN: the reply was built from released arrays)", i, w[i], 2*v[i])
		}
	}
}

func waitReleased(t *testing.T, released *atomic.Int64, want int64) {
	t.Helper()
	waitFor(t, func() bool { return released.Load() >= want }, "arrays released")
	if got := released.Load(); got != want {
		t.Fatalf("%d arrays released, want %d", got, want)
	}
}

// TestArraysOnePhaseMonolithic: a lockstep call's in- and out-array are
// released once the reply is encoded, and every reply is right — also
// from recycled, poisoned blocks, and also when the out-array is read
// before it is written (it arrives zeroed on the 2nd..Nth call too).
func TestArraysOnePhaseMonolithic(t *testing.T) {
	released := poisonReleases(t)
	reg, _, _ := arrayRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	conn := pipeConn(t, s)
	info := reg.Lookup("vec_op").Info
	for i := 0; i < 20; i++ {
		op := int64(opDouble)
		if i%2 == 1 {
			op = opCheck
		}
		args := vecOpArgs(op, float64(i))
		typ, p := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "vec_op", args...))
		checkDoubled(t, info, args, typ, p, nil)
		// The reply was encoded before it was written: both arrays are
		// back by now.
		if got, want := released.Load(), int64(2*(i+1)); got != want {
			t.Fatalf("call %d: %d arrays released, want %d", i, got, want)
		}
	}
}

// TestArraysHandlerFailure: a handler that fails or panics still gets
// the task's arrays released, with the error reply.
func TestArraysHandlerFailure(t *testing.T) {
	released := poisonReleases(t)
	reg, _, _ := arrayRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	conn := pipeConn(t, s)
	for i, op := range []int64{opFail, opPanic} {
		typ, p := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "vec_op", vecOpArgs(op, 1)...))
		if typ != protocol.MsgError {
			t.Fatalf("op %d: reply %v", op, typ)
		}
		if er, _ := protocol.DecodeErrorReply(p); er.Code != protocol.CodeExecFailed {
			t.Fatalf("op %d: code %d (%s)", op, er.Code, er.Detail)
		}
		if got, want := released.Load(), int64(2*(i+1)); got != want {
			t.Fatalf("op %d: %d arrays released, want %d", op, got, want)
		}
	}
}

// TestArraysHandlerReplacesArg: only what decode handed out goes back
// to the pool. A slice the handler put in args' place is encoded into
// the reply and left alone.
func TestArraysHandlerReplacesArg(t *testing.T) {
	released := poisonReleases(t)
	reg, _, replaced := arrayRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	conn := pipeConn(t, s)
	args := vecOpArgs(opReplace, 3)
	typ, p := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "vec_op", args...))
	checkDoubled(t, reg.Lookup("vec_op").Info, args, typ, p, nil)
	if got := released.Load(); got != 2 {
		t.Fatalf("%d arrays released, want the 2 decode handed out", got)
	}
	for i, x := range replaced {
		if math.IsNaN(x) {
			t.Fatalf("the handler's own slice was recycled (element %d poisoned)", i)
		}
	}
}

// gatedConn stalls the server's writes while the gate is armed, and
// reports each write that is waiting at it.
type gatedConn struct {
	net.Conn
	armed   atomic.Bool
	gate    chan struct{}
	waiting chan struct{}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		select {
		case c.waiting <- struct{}{}:
		default:
		}
		<-c.gate
	}
	return c.Conn.Write(p)
}

// stalledBulkSession serves one end of a pipe through a gatedConn and
// negotiates a bulk-capable session over the other.
func stalledBulkSession(t *testing.T, s *Server) (*gatedConn, *mux.Session, net.Conn) {
	t.Helper()
	cc, sc := net.Pipe()
	gc := &gatedConn{Conn: sc, gate: make(chan struct{}), waiting: make(chan struct{}, 1)}
	go s.ServeConn(gc)
	t.Cleanup(func() { sc.Close() })
	return gc, muxSessionOn(t, cc), cc
}

// TestArraysChunkedReplySettledByWriter: a chunked reply's spans alias
// the task's arrays, so they are the reply's until the writer settles
// it — not handle's return. With the connection stalled mid-reply
// nothing has been released; once it drains the result is right and
// both arrays are back.
func TestArraysChunkedReplySettledByWriter(t *testing.T) {
	released := poisonReleases(t)
	reg, _, _ := arrayRegistry(t)
	s := New(Config{PEs: 1, BulkThreshold: 1024}, reg)
	defer s.Close()
	gc, sess, _ := stalledBulkSession(t, s)
	info := reg.Lookup("vec_op").Info

	args := vecOpArgs(opDouble, 7)
	m, err := protocol.EncodeCallRequestChunks(info, &protocol.CallRequest{Name: "vec_op", Args: args}, 1024)
	if err != nil || m == nil {
		t.Fatalf("request not chunked: %v", err)
	}
	gc.armed.Store(true)
	type result struct {
		typ  protocol.MsgType
		fb   *protocol.Buffer
		bulk *protocol.BulkInfo
		err  error
	}
	done := make(chan result, 1)
	go func() {
		typ, fb, bulk, err := sess.RoundtripBulk(context.Background(), m)
		done <- result{typ, fb, bulk, err}
	}()
	<-gc.waiting // the writer has the reply and is stuck on its first frame
	time.Sleep(20 * time.Millisecond)
	if got := released.Load(); got != 0 {
		t.Fatalf("%d arrays released while the reply that aliases them is still being written", got)
	}
	gc.armed.Store(false)
	close(gc.gate)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.fb.Release()
	if r.bulk == nil {
		t.Fatal("reply was not chunked")
	}
	checkDoubled(t, info, args, r.typ, r.bulk.Head(), r.bulk)
	waitReleased(t, released, 2)
}

// TestArraysChunkedReplyLostWithConn: a chunked reply the writer gives
// up on — the connection died under it — is settled as not written, and
// that returns the arrays too.
func TestArraysChunkedReplyLostWithConn(t *testing.T) {
	released := poisonReleases(t)
	reg, _, _ := arrayRegistry(t)
	s := New(Config{PEs: 1, BulkThreshold: 1024}, reg)
	defer s.Close()
	gc, sess, cc := stalledBulkSession(t, s)
	info := reg.Lookup("vec_op").Info

	m, err := protocol.EncodeCallRequestChunks(info, &protocol.CallRequest{Name: "vec_op", Args: vecOpArgs(opDouble, 7)}, 1024)
	if err != nil || m == nil {
		t.Fatalf("request not chunked: %v", err)
	}
	gc.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, fb, _, err := sess.RoundtripBulk(context.Background(), m)
		fb.Release()
		done <- err
	}()
	<-gc.waiting
	if got := released.Load(); got != 0 {
		t.Fatalf("%d arrays released before the reply settled", got)
	}
	cc.Close()
	gc.armed.Store(false)
	close(gc.gate)
	if err := <-done; err == nil {
		t.Fatal("call over a cut connection succeeded")
	}
	waitReleased(t, released, 2)
}

// TestArraysTwoPhase: a submitted job's arrays go back when run has
// pre-encoded its reply, before any fetch; the fetched result is right.
func TestArraysTwoPhase(t *testing.T) {
	released := poisonReleases(t)
	reg, _, _ := arrayRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	conn := pipeConn(t, s)
	args := vecOpArgs(opDouble, 11)
	typ, p := call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "vec_op", args...)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit = %v", typ)
	}
	rep, err := protocol.DecodeSubmitReply(p)
	if err != nil {
		t.Fatal(err)
	}
	waitReleased(t, released, 2)
	fr := protocol.FetchRequest{JobID: rep.JobID, Wait: true}
	typ, p = call(t, conn, protocol.MsgFetch, fr.Encode())
	checkDoubled(t, reg.Lookup("vec_op").Info, args, typ, p, nil)

	// A re-submission under the same key is answered with the job
	// already admitted; the arrays decoded for the duplicate go back.
	typ, _ = call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "vec_op", args...)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("duplicate submit = %v", typ)
	}
	waitReleased(t, released, 4)
}

// TestArraysShedAndRejected: a queued job shed before it ran, and a
// submission rejected after its arguments were decoded, both return
// their arrays.
func TestArraysShedAndRejected(t *testing.T) {
	released := poisonReleases(t)
	reg, release, _ := arrayRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	// Rejected on arrival: the deadline is long past, which admit only
	// learns by decoding the arguments.
	typ, p := call(t, conn, protocol.MsgCall, encodeCallDeadline(t, reg, 1, "vec_op", vecOpArgs(opDouble, 1)...))
	expectOverloaded(t, typ, p)
	if got := released.Load(); got != 2 {
		t.Fatalf("rejected call: %d arrays released, want 2", got)
	}

	// Shed: job 1 holds the PE while job 2's deadline lapses in queue.
	call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "block", int64(0))))
	deadline := time.Now().Add(30 * time.Millisecond).UnixNano()
	typ, p = call(t, conn, protocol.MsgSubmit,
		submitPayload(2, encodeCallDeadline(t, reg, deadline, "vec_op", vecOpArgs(opDouble, 2)...)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit = %v", typ)
	}
	rep, err := protocol.DecodeSubmitReply(p)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if got := released.Load(); got != 2 {
		t.Fatalf("queued job: %d arrays released, want still 2", got)
	}
	release <- struct{}{}
	fr := protocol.FetchRequest{JobID: rep.JobID, Wait: true}
	typ, p = call(t, conn, protocol.MsgFetch, fr.Encode())
	if er := expectOverloaded(t, typ, p); !strings.Contains(er.Detail, "shed") {
		t.Errorf("detail = %q", er.Detail)
	}
	waitReleased(t, released, 4)
}

// TestArraysRetainedResultNotRecycled: a call that asks for result
// retention hands its out-array to the argument cache, whose entry
// aliases it (zero-copy on a little-endian host). That array must never
// reach the pool: after 100 further calls through the same size class
// the cached bytes still hash to their digest.
func TestArraysRetainedResultNotRecycled(t *testing.T) {
	released := poisonReleases(t)
	reg, _, _ := arrayRegistry(t)
	s := New(Config{PEs: 1, BulkThreshold: 1024, CacheBudget: 1 << 20}, reg)
	defer s.Close()
	conn := pipeConn(t, s)
	info := reg.Lookup("vec_op").Info

	args := vecOpArgs(opDouble, 5)
	p, err := protocol.EncodeCallRequest(info, &protocol.CallRequest{Name: "vec_op", Args: args, Retain: true})
	if err != nil {
		t.Fatal(err)
	}
	typ, rp := call(t, conn, protocol.MsgCall, p)
	checkDoubled(t, info, args, typ, rp, nil)
	if got := released.Load(); got != 0 {
		t.Fatalf("%d arrays of a retaining call released; the cache aliases them", got)
	}
	want := make([]float64, vecN)
	for i, x := range args[2].([]float64) {
		want[i] = 2 * x
	}
	dig := protocol.DigestFloat64s(want)
	if !s.cache.contains(dig) {
		t.Fatal("result was not retained")
	}
	for i := 0; i < 100; i++ {
		a := vecOpArgs(opDouble, float64(100+i))
		typ, rp := call(t, conn, protocol.MsgCall, encodeCall(t, reg, "vec_op", a...))
		checkDoubled(t, info, a, typ, rp, nil)
	}
	b, ok := s.cache.get(dig)
	if !ok {
		t.Fatal("retained result evicted")
	}
	if got := protocol.DigestBytesLE(b); got != dig {
		t.Fatalf("cached bytes hash to %v, want %v: the cache's array was recycled", got, dig)
	}
}
