package ninf_test

import (
	"errors"
	"net"
	"sync"
	"testing"

	"ninf"
	"ninf/internal/ep"
	"ninf/internal/server"
)

func TestConcurrentCallsOnOneClient(t *testing.T) {
	// Blocking calls from many goroutines share one client: concurrent
	// use must be safe and every call must succeed.
	_, dial := startServer(t, server.Config{PEs: 4})
	c := newClient(t, dial)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sx, sy float64
			var pairs int64
			_, err := c.Call("ep", 8, 0, int64(1)<<8, &sx, &sy, &pairs, nil)
			if err == nil && pairs == 0 {
				err = errors.New("no pairs")
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAsyncDialFailure(t *testing.T) {
	// The eager dial works, then the dialer fails. Emptying the pool
	// closes the eager connection, so the call has to dial: CallAsync
	// must surface the dial error via Wait, not hang or panic.
	_, realDial := startServer(t, server.Config{})
	calls := 0
	flaky := func() (net.Conn, error) {
		calls++
		if calls == 1 {
			return realDial()
		}
		return nil, errors.New("network down")
	}
	c, err := ninf.NewClient(flaky)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetPoolSize(0)
	a := c.CallAsync("busy", 1)
	if _, err := a.Wait(); err == nil {
		t.Error("async call with failing dialer succeeded")
	}
}

func TestMaxPayloadEnforced(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	c.SetMaxPayload(512) // smaller than the echo reply below
	n := 4096
	data := make([]float64, n)
	out := make([]float64, n)
	if _, err := c.Call("echo", n, data, out); err == nil {
		t.Error("oversized reply accepted under MaxPayload")
	}
}

func TestInterfaceCachedAcrossCalls(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	first, err := c.Interface("busy")
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Interface("busy")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("interface re-fetched instead of served from cache")
	}
	// The cache also backs calls made after the fetch.
	if _, err := c.Call("busy", 1); err != nil {
		t.Fatal(err)
	}
}

func TestReportDurations(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	rep, err := c.Call("busy", 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputeTime().Milliseconds() < 20 {
		t.Errorf("compute time %v, want ≥ 25ms-ish", rep.ComputeTime())
	}
	if rep.Total() < rep.ComputeTime() {
		t.Error("total < compute")
	}
	if rep.Response() < 0 || rep.Wait() < 0 {
		t.Errorf("negative response/wait: %v %v", rep.Response(), rep.Wait())
	}
	if rep.Throughput() <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestEPRangeMergeViaAsync(t *testing.T) {
	// Async fan-out over a single server must still merge exactly
	// (regression guard for interface-cache races between async
	// connections).
	_, dial := startServer(t, server.Config{PEs: 2})
	c := newClient(t, dial)
	m := 12
	total := int64(1) << m
	parts := 8
	sx := make([]float64, parts)
	sy := make([]float64, parts)
	pairs := make([]int64, parts)
	asyncs := make([]*ninf.AsyncCall, parts)
	for i := range asyncs {
		first := total * int64(i) / int64(parts)
		last := total * int64(i+1) / int64(parts)
		asyncs[i] = c.CallAsync("ep", m, first, last-first, &sx[i], &sy[i], &pairs[i], nil)
	}
	var sum int64
	for i, a := range asyncs {
		if _, err := a.Wait(); err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		sum += pairs[i]
	}
	want, err := ep.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if sum != want.Pairs {
		t.Errorf("merged pairs %d, want %d", sum, want.Pairs)
	}
}
