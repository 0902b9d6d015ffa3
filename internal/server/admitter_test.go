package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/protocol"
)

// admitterRegistry registers busy, which holds its PE until release is
// closed or the server shuts down, and work; both log every execution.
func admitterRegistry(t *testing.T) (*Registry, *execLog, chan struct{}) {
	t.Helper()
	log, release := &execLog{}, make(chan struct{})
	reg := NewRegistry()
	err := reg.RegisterIDL(`
Define busy(mode_in int n)
    Calls "go" busy(n);
Define work(mode_in int n)
    Calls "go" work(n);
`, map[string]Handler{
		"busy": func(ctx context.Context, _ []idl.Value) error {
			log.ran("busy")
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		"work": func(_ context.Context, args []idl.Value) error {
			log.ran(fmt.Sprintf("work%d", args[0].(int64)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, log, release
}

// admitted is one blocking call's outcome, seen by the goroutine that
// handed it to the server.
type admitted struct {
	g    uint64
	typ  protocol.MsgType
	body []byte
}

// admitCall services one MsgCall on a goroutine of its own, as a
// framer would, and delivers what that goroutine saw.
func admitCall(s *Server, payload []byte) <-chan admitted {
	ch := make(chan admitted, 1)
	go func() {
		r := s.handle("test", caps{}, protocol.MsgCall, protocol.BufferFor(payload), nil)
		ch <- admitted{g: goid(), typ: r.t, body: protocol.CopyOut(r.fb)}
	}()
	return ch
}

// TestBlockingCallRunsOnAdmitter: a blocking call executes on the
// goroutine that admitted it — the framer's — whether it started at
// once or waited in the queue, and a queued call that ends unexecuted
// (shed, or failed by Close) hands its admitter the error instead.
func TestBlockingCallRunsOnAdmitter(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		reg, log, _ := admitterRegistry(t)
		s := New(Config{PEs: 1}, reg)
		defer s.Close()
		r := s.handle("test", caps{}, protocol.MsgCall, protocol.BufferFor(encodeCall(t, reg, "work", int64(1))), nil)
		r.fb.Release()
		if r.t != protocol.MsgCallOK {
			t.Fatalf("reply = %v", r.t)
		}
		want := []execution{{"work1", goid()}}
		if got := log.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("executions = %v, want %v (no run goroutine)", got, want)
		}
	})

	t.Run("queued", func(t *testing.T) {
		reg, log, release := admitterRegistry(t)
		s := New(Config{PEs: 1}, reg)
		defer s.Close()
		busy := admitCall(s, encodeCall(t, reg, "busy", int64(0)))
		waitFor(t, func() bool { return len(log.snapshot()) == 1 }, "busy to hold the PE")
		first := admitCall(s, encodeCall(t, reg, "work", int64(1)))
		waitFor(t, func() bool { return s.queueLen() == 1 }, "the first call to queue")
		second := admitCall(s, encodeCall(t, reg, "work", int64(2)))
		waitFor(t, func() bool { return s.queueLen() == 2 }, "the second call to queue")
		close(release)

		var want []execution
		for i, ch := range []<-chan admitted{busy, first, second} {
			a := <-ch
			if a.typ != protocol.MsgCallOK {
				t.Fatalf("call %d: reply = %v", i, a.typ)
			}
			want = append(want, execution{[]string{"busy", "work1", "work2"}[i], a.g})
		}
		if got := log.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("executions = %v, want %v (each on its admitter, FCFS)", got, want)
		}
	})

	// ends checks that a queued call came back as a MsgError whose
	// detail names why, and that only busy ever executed.
	ends := func(t *testing.T, log *execLog, ch <-chan admitted, why string) {
		t.Helper()
		a := <-ch
		if a.typ != protocol.MsgError {
			t.Fatalf("queued call: reply = %v, want MsgError", a.typ)
		}
		er, err := protocol.DecodeErrorReply(a.body)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(er.Detail, why) {
			t.Errorf("detail = %q, want it to mention %q", er.Detail, why)
		}
		for _, e := range log.snapshot() {
			if e.name != "busy" {
				t.Errorf("%s executed", e.name)
			}
		}
	}

	t.Run("shed", func(t *testing.T) {
		reg, log, release := admitterRegistry(t)
		s := New(Config{PEs: 1}, reg)
		defer s.Close()
		busy := admitCall(s, encodeCall(t, reg, "busy", int64(0)))
		waitFor(t, func() bool { return len(log.snapshot()) == 1 }, "busy to hold the PE")
		deadline := time.Now().Add(100 * time.Millisecond)
		queued := admitCall(s, encodeCallDeadline(t, reg, deadline.UnixNano(), "work", int64(1)))
		waitFor(t, func() bool { return s.queueLen() == 1 }, "the call to queue")
		time.Sleep(time.Until(deadline) + 5*time.Millisecond)
		close(release)
		ends(t, log, queued, "shed")
		<-busy
	})

	t.Run("close", func(t *testing.T) {
		reg, log, _ := admitterRegistry(t)
		s := New(Config{PEs: 1}, reg)
		busy := admitCall(s, encodeCall(t, reg, "busy", int64(0)))
		waitFor(t, func() bool { return len(log.snapshot()) == 1 }, "busy to hold the PE")
		queued := admitCall(s, encodeCall(t, reg, "work", int64(1)))
		waitFor(t, func() bool { return s.queueLen() == 1 }, "the call to queue")
		s.Close()
		ends(t, log, queued, "shut down")
		<-busy
	})
}

// TestOutOnlyBudget: an out-only array is sized by a scalar alone, so a
// tiny request could make the server allocate — and answer with — an
// array of any size. The out-only bytes are held to the payload limit,
// and a dimension product that overflows, across dimensions or inside
// one, is refused rather than wrapped;
// either way the call gets CodeBadArguments and the server lives on.
func TestOutOnlyBudget(t *testing.T) {
	reg := NewRegistry()
	err := reg.RegisterIDL(`
Define dos(mode_in int m, mode_in int bins, mode_out double hist[bins])
    Calls "go" dos(m, bins, hist);
Define sq(mode_in int n, mode_out double c[n][n])
    Calls "go" sq(n, c);
Define sq1(mode_in int n, mode_out double c[n*n])
    Calls "go" sq1(n, c);
`, map[string]Handler{
		"dos": func(context.Context, []idl.Value) error { t.Error("dos executed"); return nil },
		"sq":  func(context.Context, []idl.Value) error { t.Error("sq executed"); return nil },
		"sq1": func(context.Context, []idl.Value) error { t.Error("sq1 executed"); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxPayload: 1 << 20}, reg)
	defer s.Close()
	conn := pipeConn(t, s)

	// The request bytes, written without the out-only parameter the
	// client-side encoder would size (and, for sq, refuse) first.
	raw := func(src string, args ...idl.Value) []byte {
		info, err := idl.ParseOne(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := protocol.EncodeCallRequest(info, &protocol.CallRequest{Name: info.Name, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dosReq := `Define dos(mode_in int m, mode_in int bins) Calls "go" dos(m, bins);`
	for _, c := range []struct {
		name string
		req  []byte
	}{
		{"dos 2^40", raw(dosReq, int64(1), int64(1)<<40)},
		{"dos 2^24", raw(dosReq, int64(1), int64(1)<<24)},
		{"sq 2^32", raw(`Define sq(mode_in int n) Calls "go" sq(n);`, int64(1)<<32)},
		{"sq1 2^32", raw(`Define sq1(mode_in int n) Calls "go" sq1(n);`, int64(1)<<32)},
	} {
		typ, p := call(t, conn, protocol.MsgCall, c.req)
		if typ != protocol.MsgError {
			t.Fatalf("%s: reply = %v, want MsgError", c.name, typ)
		}
		er, err := protocol.DecodeErrorReply(p)
		if err != nil {
			t.Fatal(err)
		}
		if er.Code != protocol.CodeBadArguments {
			t.Errorf("%s: code = %d (%s), want CodeBadArguments", c.name, er.Code, er.Detail)
		}
		if typ, _ := call(t, conn, protocol.MsgPing, nil); typ != protocol.MsgPong {
			t.Fatalf("%s: ping after = %v", c.name, typ)
		}
	}
}
