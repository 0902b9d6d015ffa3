package server

import (
	"math"
	"sync"
	"testing"
	"time"
)

// clock is a test clock for newServer: it stands still until advanced.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBooksScripted pins the load books Stats reports — the damped load
// average over running plus queued jobs, CPU utilisation from the
// PE-busy integral, the queued and running counts and the call total —
// through a scripted admit, start, shed and finish sequence on a
// clock that moves only when the test moves it. The expected values
// come from a reference model that integrates the same state over the
// same intervals: each event folds in the time since the one before,
// under the state as it was before the event.
func TestBooksScripted(t *testing.T) {
	reg, release := testRegistry(t)
	clk := newClock()
	t0 := clk.now()
	s := newServer(Config{PEs: 1}, reg, clk.now)
	defer s.Close()

	// The reference model: k jobs running or queued and pe PEs busy since
	// the last event at last.
	var (
		load  float64
		busy  time.Duration
		last  time.Duration
		k, pe int
	)
	at := func(d time.Duration) {
		t.Helper()
		clk.advance(t0.Add(d).Sub(clk.now()))
		dt := d - last
		decay := math.Exp(-dt.Seconds() / 60)
		load = load*decay + float64(k)*(1-decay)
		busy += time.Duration(float64(dt) * float64(pe))
		last = d
	}
	check := func(queued, running, total int64) {
		t.Helper()
		st := s.Stats()
		util := float64(busy) / float64(last)
		if st.Queued != queued || st.Running != running || st.TotalCalls != total {
			t.Errorf("at %v: queued %d, running %d, total %d; want %d, %d, %d",
				last, st.Queued, st.Running, st.TotalCalls, queued, running, total)
		}
		if math.Abs(st.LoadAverage-load) > 1e-12 || math.Abs(st.CPUUtil-util) > 1e-12 {
			t.Errorf("at %v: load %.15g, util %.15g; want %.15g, %.15g", last, st.LoadAverage, st.CPUUtil, load, util)
		}
	}
	submit := func(deadline time.Duration) *task {
		t.Helper()
		var dl int64
		if deadline > 0 {
			dl = t0.Add(deadline).UnixNano()
		}
		tk, _, _, err := s.admit(encodeCallDeadline(t, reg, dl, "block", int64(1)), nil, true, nil, 0, "c")
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	at(10 * time.Second) // a is admitted and starts at once
	a := submit(0)
	k, pe = 1, 1
	at(20 * time.Second) // b queues behind it, due at 38 s
	b := submit(38 * time.Second)
	k = 2
	at(30 * time.Second) // c queues
	c := submit(0)
	k = 3
	at(35 * time.Second)
	check(2, 1, 3)

	at(40 * time.Second) // a finishes; b is shed past its deadline; c starts
	release <- struct{}{}
	<-a.done
	<-b.done
	if b.err == nil || s.Overload().ShedExpired != 1 {
		t.Fatalf("b was not shed: err %v, shed %d", b.err, s.Overload().ShedExpired)
	}
	k, pe = 1, 1
	at(50 * time.Second)
	check(0, 1, 3)

	at(60 * time.Second) // c finishes
	release <- struct{}{}
	<-c.done
	k, pe = 0, 0
	at(70 * time.Second)
	check(0, 0, 3)
}
