package ninf_test

import (
	"net"
	"runtime"
	"testing"

	"ninf"
	"ninf/internal/library"
	"ninf/internal/server"
	"ninf/internal/server/journal"
)

// allocPerCall reports the bytes and the heap objects allocated per
// call of fn, process-wide (the client and the in-process server
// together), over calls calls after warm-up. GC settings are whatever
// the test binary runs with.
func allocPerCall(warmup, calls int, fn func()) (bytes, objects float64) {
	for i := 0; i < warmup; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(calls),
		float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// echoCaller returns a func that makes one checked n-element echo call.
func echoCaller(t *testing.T, c *ninf.Client, n int) func() {
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	out := make([]float64, n)
	k := 0
	return func() {
		k++
		in[k%n] = float64(-k) // a stale buffer cannot pass
		if _, err := c.Call("echo", n, in, out); err != nil {
			t.Fatal(err)
		}
		if out[k%n] != in[k%n] || out[n-1-k%n] != in[n-1-k%n] {
			t.Fatal("echo returned stale data")
		}
	}
}

// TestAllocBudgetMid is the allocation gate on the array data path: a
// steady-state 64 KiB echo allocates at most 16 KiB per call in client
// and server together, over mux and over lockstep. An array crosses the
// codec once in each direction and lands in pooled or caller-owned
// memory; before that was so the same call allocated about 200 KB (a
// 64 KiB array three times over, plus the chunk copies' frames).
func TestAllocBudgetMid(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random; the budget assumes they are kept")
	}
	const budget = 16 << 10
	for _, mux := range []bool{true, false} {
		_, dial := startServer(t, server.Config{})
		c := newClient(t, dial)
		c.SetMultiplexing(mux)
		got, _ := allocPerCall(50, 300, echoCaller(t, c, 8192))
		t.Logf("mux=%v: %.0f bytes allocated per 64 KiB echo", mux, got)
		if got > budget {
			t.Errorf("mux=%v: %.0f bytes allocated per 64 KiB echo, budget %d", mux, got, budget)
		}
	}
}

// TestAllocBudgetSmall is the gate on the per-call fixed cost: the heap
// objects one steady-state 8-byte echo allocates, client and server
// together, over mux and over lockstep. Measured on linux/amd64: 21 over
// mux, 25 over lockstep. It was 28 and 30 while every blocking call got
// a run goroutine of its own, schedule built its job view anew each
// pass, and the mux header read and DimSizes each allocated.
func TestAllocBudgetSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random; the budget assumes they are kept")
	}
	for _, c := range []struct {
		mux    bool
		budget float64
	}{{true, 23}, {false, 27}} {
		_, dial := startServer(t, server.Config{})
		cl := newClient(t, dial)
		cl.SetMultiplexing(c.mux)
		_, got := allocPerCall(200, 2000, echoCaller(t, cl, 1))
		t.Logf("mux=%v: %.1f allocations per 8-byte echo", c.mux, got)
		if got > c.budget {
			t.Errorf("mux=%v: %.1f allocations per 8-byte echo, budget %.0f", c.mux, got, c.budget)
		}
	}
}

// TestAllocBudgetJournaledSubmit is the gate on the two-phase path with
// a journal attached: a steady-state Submit + Fetch(wait) of dmmul(8),
// client and server together. The submit record is framed straight
// into the journal's pending tail — the arrival bytes, not a re-encode —
// so appending allocates nothing once the tail has grown; the budget is the
// measured ≈4.2 KB per call plus headroom (≈7.3 KB when every record
// was encoded into its own buffer and the submit re-encoded first).
func TestAllocBudgetJournaledSubmit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random; the budget assumes they are kept")
	}
	const budget = 6 << 10
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{PEs: 2}, reg)
	t.Cleanup(func() { s.Close() })
	if _, err := s.AttachJournal(t.TempDir(), journal.Options{}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) })

	const n = 8
	a, b, got := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%5), float64(i%3)
	}
	submitFetch := func() {
		got[n*n-1] = -1
		j, err := c.Submit("dmmul", n, a, b, got)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Fetch(true); err != nil {
			t.Fatal(err)
		}
		if got[n*n-1] < 0 {
			t.Fatal("fetch did not fill the result")
		}
	}
	perCall, _ := allocPerCall(100, 1000, submitFetch)
	t.Logf("%.0f bytes allocated per journaled dmmul(8) submit + fetch", perCall)
	if perCall > budget {
		t.Errorf("%.0f bytes allocated per journaled submit + fetch, budget %d", perCall, budget)
	}
}

// TestAllocBudgetBulk: an 8 MiB chunked echo's result is moved from the
// reassembled segment straight into the caller's slice, so no
// result-sized block is allocated for it: under 1 MiB per call, client
// and server together (the server's arrays and both ends' reassembly
// buffers are pooled).
func TestAllocBudgetBulk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random; the budget assumes they are kept")
	}
	const budget = 1 << 20
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	got, _ := allocPerCall(5, 200, echoCaller(t, c, 1<<20))
	t.Logf("%.0f bytes allocated per 8 MiB echo", got)
	if !c.Multiplexed() {
		t.Fatal("the calls did not ride the mux session")
	}
	if got > budget {
		t.Errorf("%.0f bytes allocated per 8 MiB echo, budget %d", got, budget)
	}
}
