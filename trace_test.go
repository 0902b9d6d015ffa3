package ninf_test

import (
	"testing"
	"time"

	"ninf"
	"ninf/internal/server"
)

func TestTraceAccumulates(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)

	// Fresh server: empty trace.
	ts, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 0 {
		t.Errorf("fresh trace = %v", ts)
	}

	for i := 0; i < 3; i++ {
		if _, err := c.Call("busy", 15); err != nil {
			t.Fatal(err)
		}
	}
	n := 64
	data := make([]float64, n)
	if _, err := c.Call("echo", n, data, nil); err != nil {
		t.Fatal(err)
	}

	ts, err = c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ninf.RoutineTrace{}
	for _, rt := range ts {
		byName[rt.Name] = rt
	}
	busy := byName["busy"]
	if busy.Count != 3 || busy.Failures != 0 {
		t.Errorf("busy trace = %+v", busy)
	}
	if busy.MeanCompute < 10*time.Millisecond {
		t.Errorf("busy mean compute %v, want ≥ 15ms-ish", busy.MeanCompute)
	}
	echo := byName["echo"]
	if echo.Count != 1 {
		t.Errorf("echo trace = %+v", echo)
	}
	if echo.MeanBytes < int64(8*n) {
		t.Errorf("echo mean bytes %d, want ≥ %d", echo.MeanBytes, 8*n)
	}

	// Failures are traced too.
	if _, err := c.Call("busy", -1); err == nil {
		t.Fatal("expected failure")
	}
	ts, _ = c.Trace()
	for _, rt := range ts {
		if rt.Name == "busy" && rt.Failures != 1 {
			t.Errorf("busy failures = %d, want 1", rt.Failures)
		}
	}
}

func TestTraceOrderedByName(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	if _, err := c.Call("echo", 1, []float64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("busy", 1); err != nil {
		t.Fatal(err)
	}
	ts, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].Name < ts[i-1].Name {
			t.Errorf("trace not sorted: %v before %v", ts[i-1].Name, ts[i].Name)
		}
	}
}
