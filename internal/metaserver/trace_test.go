package metaserver

import (
	"testing"
	"time"

	"ninf"
	"ninf/internal/server"
)

func TestPollFetchesTraces(t *testing.T) {
	m := New(Config{})
	_, addr, dial := startServer(t, server.Config{Hostname: "traced"})
	if err := m.AddServer("traced", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	// Execute something so the server has history.
	c, err := ninf.NewClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("busy", 20); err != nil {
		t.Fatal(err)
	}

	if got := m.PollOnce(); got != 1 {
		t.Fatalf("PollOnce = %d", got)
	}
	snap := m.Servers()[0]
	if snap.TraceCompute == nil {
		t.Fatal("no trace fetched during poll")
	}
	if d := snap.TraceCompute["busy"]; d < 15*time.Millisecond {
		t.Errorf("busy mean compute %v, want ≥ ~20ms", d)
	}
}
