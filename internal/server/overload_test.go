package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/protocol"
)

// encodeCallDeadline is encodeCall with the caller's absolute deadline
// attached to the request.
func encodeCallDeadline(t *testing.T, reg *Registry, deadline int64, name string, args ...idl.Value) []byte {
	t.Helper()
	ex := reg.Lookup(name)
	if ex == nil {
		t.Fatalf("no routine %q", name)
	}
	p, err := protocol.EncodeCallRequest(ex.Info, &protocol.CallRequest{Name: name, Args: args, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// expectOverloaded asserts a MsgError reply with CodeOverloaded and
// returns the decoded reply so callers can inspect the hint.
func expectOverloaded(t *testing.T, typ protocol.MsgType, payload []byte) protocol.ErrorReply {
	t.Helper()
	if typ != protocol.MsgError {
		t.Fatalf("reply = %v, want MsgError", typ)
	}
	er, err := protocol.DecodeErrorReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != protocol.CodeOverloaded {
		t.Fatalf("code = %d (%s), want CodeOverloaded", er.Code, er.Detail)
	}
	return er
}

func TestAdmitRejectsExpiredDeadline(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	past := time.Now().Add(-time.Second).UnixNano()
	typ, p := call(t, conn, protocol.MsgCall,
		encodeCallDeadline(t, reg, past, "double_it", int64(1), []float64{1}, nil))
	er := expectOverloaded(t, typ, p)
	if er.RetryAfterMillis == 0 {
		t.Error("expired-deadline rejection carries no retry-after hint")
	}
	if got := s.Overload().RejectedDeadline; got != 1 {
		t.Errorf("RejectedDeadline = %d, want 1", got)
	}
}

func TestAdmitRejectsUnmeetableDeadline(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	defer close(release)
	conn := pipeConn(t, s)

	// Occupy the PE and queue one job so a queue wait exists, then
	// plant a long observed service time: a deadline shorter than the
	// estimated wait must be refused at admission, not executed late.
	call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "block", int64(0))))
	call(t, conn, protocol.MsgSubmit, submitPayload(2, encodeCall(t, reg, "block", int64(0))))
	s.mu.Lock()
	s.svcNanos = float64(time.Second)
	s.mu.Unlock()

	soon := time.Now().Add(50 * time.Millisecond).UnixNano()
	typ, p := call(t, conn, protocol.MsgCall,
		encodeCallDeadline(t, reg, soon, "double_it", int64(1), []float64{1}, nil))
	er := expectOverloaded(t, typ, p)
	if !strings.Contains(er.Detail, "unmeetable") {
		t.Errorf("detail = %q", er.Detail)
	}
	if er.RetryAfterMillis == 0 {
		t.Error("unmeetable-deadline rejection carries no retry-after hint")
	}

	// A deadline the queue can meet is still admitted.
	late := time.Now().Add(time.Hour).UnixNano()
	typ, _ = call(t, conn, protocol.MsgSubmit,
		submitPayload(3, encodeCallDeadline(t, reg, late, "double_it", int64(1), []float64{1}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Errorf("loose-deadline submit = %v, want MsgSubmitOK", typ)
	}
	release <- struct{}{}
	release <- struct{}{}
}

func TestShedsExpiredAtDispatch(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	// Job 1 holds the PE; job 2 is queued with a deadline that expires
	// while it waits. When the PE frees, job 2 must be shed — failed
	// with CodeOverloaded — not executed as dead work.
	call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "block", int64(0))))
	deadline := time.Now().Add(30 * time.Millisecond).UnixNano()
	typ, p := call(t, conn, protocol.MsgSubmit,
		submitPayload(2, encodeCallDeadline(t, reg, deadline, "double_it", int64(1), []float64{1}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit = %v", typ)
	}
	rep, err := protocol.DecodeSubmitReply(p)
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(60 * time.Millisecond) // let the deadline lapse in queue
	release <- struct{}{}             // free the PE

	fr := protocol.FetchRequest{JobID: rep.JobID, Wait: true}
	typ, p = call(t, conn, protocol.MsgFetch, fr.Encode())
	er := expectOverloaded(t, typ, p)
	if !strings.Contains(er.Detail, "shed") {
		t.Errorf("detail = %q", er.Detail)
	}
	if er.RetryAfterMillis == 0 {
		t.Error("shed reply carries no retry-after hint")
	}
	if got := s.Overload().ShedExpired; got != 1 {
		t.Errorf("ShedExpired = %d, want 1", got)
	}
}

func TestPerClientQueueShare(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 1, MaxQueue: 10, MaxPerClient: 2}, reg)
	defer s.Close()
	defer close(release)
	greedy := pipeConn(t, s)
	other := pipeConn(t, s)

	// The greedy connection's first submit runs; two more fill its
	// queue share; the fourth must be rejected even though MaxQueue has
	// plenty of room — and the other client must still get in.
	for key := uint64(1); key <= 3; key++ {
		typ, _ := call(t, greedy, protocol.MsgSubmit, submitPayload(key, encodeCall(t, reg, "block", int64(0))))
		if typ != protocol.MsgSubmitOK {
			t.Fatalf("submit %d = %v", key, typ)
		}
	}
	typ, p := call(t, greedy, protocol.MsgSubmit, submitPayload(4, encodeCall(t, reg, "block", int64(0))))
	er := expectOverloaded(t, typ, p)
	if !strings.Contains(er.Detail, "per-client") {
		t.Errorf("detail = %q", er.Detail)
	}
	if got := s.Overload().RejectedClient; got != 1 {
		t.Errorf("RejectedClient = %d, want 1", got)
	}

	typ, _ = call(t, other, protocol.MsgSubmit, submitPayload(5, encodeCall(t, reg, "block", int64(0))))
	if typ != protocol.MsgSubmitOK {
		t.Errorf("other client's submit = %v, want MsgSubmitOK", typ)
	}

	for i := 0; i < 4; i++ {
		release <- struct{}{}
	}
}

func TestMaxQueueRejectCarriesHint(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 1, MaxQueue: 1, MaxPerClient: -1}, reg)
	defer s.Close()
	defer close(release)
	conn := pipeConn(t, s)

	call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "block", int64(0))))
	call(t, conn, protocol.MsgSubmit, submitPayload(2, encodeCall(t, reg, "block", int64(0))))
	typ, p := call(t, conn, protocol.MsgSubmit, submitPayload(3, encodeCall(t, reg, "block", int64(0))))
	er := expectOverloaded(t, typ, p)
	if er.RetryAfterMillis == 0 {
		t.Error("queue-full rejection carries no retry-after hint")
	}
	if got := s.Overload().RejectedQueue; got != 1 {
		t.Errorf("RejectedQueue = %d, want 1", got)
	}
	release <- struct{}{}
	release <- struct{}{}
}

func TestDrainFinishesWorkRejectsNew(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 1}, reg)
	conn := pipeConn(t, s)
	late := pipeConn(t, s)

	// One job running, one queued; then drain.
	call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "block", int64(0))))
	typ, p := call(t, conn, protocol.MsgSubmit,
		submitPayload(2, encodeCall(t, reg, "double_it", int64(1), []float64{21}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit = %v", typ)
	}
	rep, err := protocol.DecodeSubmitReply(p)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if !s.Stats().Draining {
		t.Error("Stats().Draining = false during drain")
	}

	// New work is refused with a steer-elsewhere hint...
	typ, p = call(t, late, protocol.MsgSubmit, submitPayload(9, encodeCall(t, reg, "block", int64(0))))
	er := expectOverloaded(t, typ, p)
	if !strings.Contains(er.Detail, "draining") || er.RetryAfterMillis == 0 {
		t.Errorf("draining rejection = %+v", er)
	}
	if got := s.Overload().RejectedDraining; got != 1 {
		t.Errorf("RejectedDraining = %d, want 1", got)
	}

	// ...but accepted work still completes and its result is
	// fetchable while the drain is in progress.
	fetched := make(chan []float64, 1)
	go func() {
		fr := protocol.FetchRequest{JobID: rep.JobID, Wait: true}
		typ, p, err := callNB(conn, protocol.MsgFetch, fr.Encode())
		if err != nil || typ != protocol.MsgFetchOK {
			fetched <- nil
			return
		}
		info := reg.Lookup("double_it").Info
		_, out, err := protocol.DecodeCallReply(info, []idl.Value{int64(1), []float64{21}, nil}, p)
		if err != nil {
			fetched <- nil
			return
		}
		fetched <- out[2].([]float64)
	}()

	release <- struct{}{} // let the running job finish
	if got := <-fetched; len(got) != 1 || got[0] != 42 {
		t.Errorf("fetched result = %v, want [42]", got)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain = %v", err)
	}
}

func TestDrainTimeoutForcesClose(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 1}, reg)
	defer close(release)
	conn := pipeConn(t, s)

	// A job that never finishes: the bounded drain must give up with
	// the context's error and hard-close rather than hang forever.
	call(t, conn, protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "block", int64(0))))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Errorf("Drain = %v, want context.DeadlineExceeded", err)
	}
}
