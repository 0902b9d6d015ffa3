package ninf_test

// End-to-end coverage for chunked bulk streaming on a mux session: a
// client Call whose arguments or results exceed the bulk
// threshold travels as a begin frame plus CRC-tagged chunks, encoded
// zero-copy from the caller's slices, interleaved on the wire with
// complete small frames, and reassembled into one pooled buffer on
// the far side. The public API is unchanged — these tests drive the
// ordinary Call/Submit/Fetch surface and vary only the thresholds.

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/library"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

func bulkVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%251) - 125.5
	}
	return v
}

func checkEcho(t *testing.T, in, out []float64) {
	t.Helper()
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("echo corrupted data at %d: %g != %g", i, out[i], in[i])
		}
	}
}

// TestBulkCallEndToEnd: a 1 MiB echo with aggressive thresholds on
// both sides rides the chunked path in both directions and must be
// byte-identical, with no reassembly buffers left open.
func TestBulkCallEndToEnd(t *testing.T) {
	_, dial := startServer(t, server.Config{BulkThreshold: 4096})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	n := 128 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	rep, err := c.Call("echo", n, data, out)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
	if !c.Multiplexed() {
		t.Fatal("bulk call did not ride a multiplexed session")
	}
	if rep.BytesOut < int64(8*n) || rep.BytesIn < int64(8*n) {
		t.Errorf("bytes = %d out, %d in; want >= %d both ways", rep.BytesOut, rep.BytesIn, 8*n)
	}
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("open reassemblies after call = %d", g)
	}
}

// TestBulkCallDefaultThresholds: with stock configuration a 512 KiB
// vector crosses the 256 KiB default threshold on its own.
func TestBulkCallDefaultThresholds(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	if _, err := c.Call("echo", n, data, out); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
}

// TestBulkDisabledFallsBackMonolithic: threshold -1 turns chunking off
// without touching correctness.
func TestBulkDisabledFallsBackMonolithic(t *testing.T) {
	_, dial := startServer(t, server.Config{BulkThreshold: -1})
	c := newClient(t, dial)
	c.SetBulkThreshold(-1)
	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	if _, err := c.Call("echo", n, data, out); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
}

// TestBulkLockstepPeerFallsBack: against a DisableMux (effectively
// legacy) server the client must transparently re-encode monolithic
// and stay on the lockstep path.
func TestBulkLockstepPeerFallsBack(t *testing.T) {
	_, dial := startServer(t, server.Config{DisableMux: true})
	c := newClient(t, dial)
	c.SetBulkThreshold(1024)
	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	if _, err := c.Call("echo", n, data, out); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
	if c.Multiplexed() {
		t.Error("client claims mux against a DisableMux server")
	}
}

// TestBulkSubmitFetchEndToEnd: two-phase with a large argument and a
// large stored result — the fetch reply streams back chunked.
func TestBulkSubmitFetchEndToEnd(t *testing.T) {
	_, dial := startServer(t, server.Config{BulkThreshold: 4096})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	job, err := c.Submit("echo", n, data, out)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = job.Fetch(false); err == nil {
			break
		}
		if !errors.Is(err, ninf.ErrNotReady) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	checkEcho(t, data, out)
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("open reassemblies after fetch = %d", g)
	}
}

// TestBulkMixedConcurrentCallers: several large transfers and a crowd
// of small calls share one multiplexed connection; every result must
// match its own arguments (cross-Seq corruption is the failure mode a
// broken chunk interleaver produces).
func TestBulkMixedConcurrentCallers(t *testing.T) {
	_, dial := startServer(t, server.Config{PEs: 4, BulkThreshold: 4096})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 3; g++ {
		salt := float64(g + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 32 << 10
			data := make([]float64, n)
			for i := range data {
				data[i] = salt * float64(i%97)
			}
			out := make([]float64, n)
			if _, err := c.Call("echo", n, data, out); err != nil {
				errs <- err
				return
			}
			for i := range data {
				if out[i] != data[i] {
					errs <- errors.New("bulk echo cross-caller corruption")
					return
				}
			}
		}()
	}
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if err := c.Ping(); err != nil {
					errs <- err
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
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("open reassemblies after mixed run = %d", g)
	}
}

// TestBulkFetchDuringCloseFailsRetryable is the drain-race regression
// test: a bulk fetch reply arriving while the client tears down must
// not race its reassembly against pool teardown. The fetch either
// completes normally or fails with a classified error (ErrClientClosed
// chain), and no half-reassembled buffer may survive.
func TestBulkFetchDuringCloseFailsRetryable(t *testing.T) {
	for round := 0; round < 8; round++ {
		_, dial := startServer(t, server.Config{BulkThreshold: 1024})
		c, err := ninf.NewClient(dial)
		if err != nil {
			t.Fatal(err)
		}
		n := 256 << 10 // 2 MiB result: plenty of chunks to land mid-drain
		data := bulkVec(n)
		out := make([]float64, n)
		job, err := c.Submit("echo", n, data, out)
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		fetched := make(chan error, 1)
		go func() {
			_, err := job.Fetch(true)
			fetched <- err
		}()
		// Let the fetch reach the wire, then yank the client out from
		// under the streaming reply. Vary the delay to move the close
		// around within the reassembly window.
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		c.Close()
		err = <-fetched
		if err == nil {
			checkEcho(t, data, out)
		} else if !errors.Is(err, ninf.ErrClientClosed) {
			t.Fatalf("round %d: fetch during close failed unclassified: %v", round, err)
		}
		if g := protocol.OpenBulkReassemblies(); g != 0 {
			t.Fatalf("round %d: open reassemblies after close = %d", round, g)
		}
	}
}

// TestBulkAbandonOnSlowLinkKeepsSession: a bulk call cancelled on the
// paper's 0.17 MB/s WAN costs its caller the deadline plus the chunk on
// the wire, and costs the session nothing. The writer notices an
// abandoned stream only between chunks, so the chunk has to be short in
// time: a 512 KiB one takes 3 s at this rate, which outlasts the 2 s the
// session gives its writer to let go of the caller's slices — the call
// came back after 2.3 s over a session it had just torn down, and the
// small call sharing that session failed with it. The client is pinned
// to one session: left alone it would open a second for the small call,
// which would then say nothing about the one the stream was abandoned on.
func TestBulkAbandonOnSlowLinkKeepsSession(t *testing.T) {
	const (
		rate     = 170_000 // bytes/s
		deadline = 300 * time.Millisecond
		chunk    = 16 << 10 // the mux writer's starting chunk size
	)
	// One chunk at the link rate, plus slack for a loaded machine; the
	// sum stays well under the 2 s stall that fails the session.
	limit := deadline + chunk*time.Second/rate + 500*time.Millisecond

	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{}, reg)
	t.Cleanup(func() { s.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shaped := emunet.Options{Up: []*emunet.Link{emunet.NewLink("wan", rate)}}
	go s.Serve(&shapedListener{l, shaped})
	var dials atomic.Int32
	c := newClient(t, emunet.Dialer(func() (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", l.Addr().String())
	}, shaped))
	c.PinSessions(1)

	small := func() error {
		in, out := []float64{7}, []float64{0}
		if _, err := c.Call("echo", 1, in, out); err != nil {
			return err
		}
		if out[0] != in[0] {
			return errors.New("small echo corrupted")
		}
		return nil
	}
	if err := small(); err != nil {
		t.Fatal(err)
	}
	if !c.Multiplexed() || dials.Load() != 1 {
		t.Fatalf("after warm-up: multiplexed %v, %d dials; want one mux session", c.Multiplexed(), dials.Load())
	}

	// A small call issued mid-stream shares the session with the doomed
	// transfer and must be answered over it.
	inFlight := make(chan error, 1)
	go func() {
		time.Sleep(deadline / 2)
		inFlight <- small()
	}()
	n := 256 << 10 // 2 MiB: 12 s of link time
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = c.CallContext(ctx, "echo", n, bulkVec(n), make([]float64, n))
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("2 MiB echo under a %v deadline: %v, want the deadline error", deadline, err)
	}
	if took > limit {
		t.Errorf("abandoned call returned after %v, want within %v (deadline, one %d KiB chunk at %d B/s, slack)", took, limit, chunk>>10, rate)
	}
	if err := <-inFlight; err != nil {
		t.Errorf("small call sharing the session with the abandoned transfer: %v", err)
	}
	if err := small(); err != nil {
		t.Errorf("call after the abandoned transfer: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials, want 1: abandoning a bulk call replaced the session", got)
	}
}
